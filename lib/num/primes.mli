(** Primality testing and prime generation (Miller-Rabin). *)

val is_probable_prime : ?rounds:int -> Prng.t -> Bignum.t -> bool
(** Miller-Rabin with [rounds] random bases (default 24) after trial
    division; exact for values below 10{^6}. *)

val random_prime : Prng.t -> bits:int -> Bignum.t
(** Uniform-ish prime with exactly [bits] bits (top bit forced).  Raises
    [Failure], naming [bits], when a fixed budget of candidates holds no
    prime: at the sizes the stack uses that means a broken
    exponentiation, never bad luck. *)

val random_safe_prime : Prng.t -> bits:int -> Bignum.t * Bignum.t
(** [random_safe_prime rng ~bits] is [(p, q)] with [p = 2q + 1], both
    prime, and [p] of exactly [bits] bits.  Used for Schnorr-group and
    threshold-RSA parameter generation by the trusted dealer.  Raises
    [Failure] like {!random_prime} when the candidate budget runs out. *)
