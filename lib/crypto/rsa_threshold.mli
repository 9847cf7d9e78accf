(** Practical threshold RSA signatures (Shoup, EUROCRYPT 2000).

    Clients verify a single RSA key (N, e) while the private exponent is
    Shamir-shared over Z{_{p'q'}} by the trusted dealer; shares are
    non-interactive, carry validity proofs, and any [k] valid shares
    combine into a standard RSA signature.  The reconstruction threshold
    [k] is a free parameter, which also provides the dual-threshold
    certificates (k = n − t) that compress protocol messages to constant
    size (paper, Section 3). *)

type public_key = { n_modulus : Bignum.t; e : Bignum.t; n_parties : int; k : int }

type keys = {
  pk : public_key;
  shares : Bignum.t array;  (** party i holds [shares.(i)] = f(i+1) *)
  v : Bignum.t;  (** verification base (generator of QR{_N}) *)
  vks : Bignum.t array;  (** [vks.(i) = v^{shares.(i)}] *)
}

type share = { signer : int; x : Bignum.t; c : Bignum.t; z : Bignum.t }
type signature = Bignum.t

val deal : ?bits:int -> n:int -> k:int -> Prng.t -> keys
(** Safe-prime RSA modulus of [bits] bits (default 256; toy-sized),
    e = 65537; requires [n < 65537]. *)

val delta : int -> Bignum.t
(** Δ = n! — the denominator-clearing factor. *)

val sign_share : keys -> party:int -> string -> share
(** [H(M)^{2Δs_i}] with Shoup's share-correctness proof. *)

val verify_share : keys -> string -> share -> bool

val combine : keys -> string -> share list -> signature option
(** Any [k] distinct valid shares; [None] if fewer.  Combines
    optimistically and accepts iff [y^e = H(M)], falling back to
    per-share verification when that fails — an invalid signature is
    never returned. *)

val verify : public_key -> string -> signature -> bool
(** Standard RSA full-domain-hash verification: [y^e = H(M) mod N]. *)
