(** Schnorr group: prime-order-[q] subgroup of Z{_p}{^*} for a safe prime
    [p = 2q + 1] — the discrete-log setting of the threshold coin (Cachin,
    Kursawe & Shoup) and of the Shoup–Gennaro TDH2 cryptosystem. *)

type cache
(** Mutable per-params cache of fixed-base exponentiation tables; opaque
    to callers, populated lazily by {!prepare_base} / {!exp_g}. *)

type params = { p : Bignum.t; q : Bignum.t; g : Bignum.t; cache : cache }

type elt = Bignum.t
(** A quadratic residue mod [p]; treat as abstract, validate foreign
    values with {!is_element} / {!elt_of_bytes}. *)

val params_equal : params -> params -> bool

val generate : ?bits:int -> Prng.t -> params
(** Fresh group parameters with a [bits]-bit safe prime (default 128;
    toy-sized for simulation speed — all algorithms are size-agnostic). *)

val default : ?bits:int -> unit -> params
(** Deterministic, memoized parameters shared by tests and benches. *)

val unsafe_params : p:Bignum.t -> q:Bignum.t -> g:Bignum.t -> params
(** Wrap raw values as [params] with an empty table cache and {e no
    validation whatsoever} — for benchmarks that need arbitrary-size
    moduli without paying for safe-prime generation.  Never use with
    values received from another party. *)

val one : params -> elt
val generator : params -> elt
val elt_equal : elt -> elt -> bool

val is_element : params -> Bignum.t -> bool
(** Subgroup membership check ([x{^q} = 1 mod p]); must be applied to any
    value received from another (possibly corrupted) party. *)

val mul : params -> elt -> elt -> elt

val exp : params -> elt -> Bignum.t -> elt
(** [exp ps a e] is [a^e] with the exponent reduced mod [q].  Bases
    registered with {!prepare_base} are served from their fixed-base
    table; others go through [Bignum.pow_mod]. *)

val exp_g : params -> Bignum.t -> elt
(** Like [exp ps ps.g], but builds the generator's fixed-base table on
    first use. *)

val prepare_base : params -> elt -> unit
(** Build (idempotently) a fixed-base table for [base], so subsequent
    {!exp} / {!multi_exp} calls on it cost ~numbits(q)/8
    squarings and as many Montgomery products ({!Bignum.Fixed_base}).
    Worth it by the third exponentiation on the same base; the cache
    keeps the 48 most recently used bases. *)

val neg_exponent : params -> Bignum.t -> Bignum.t
(** [neg_exponent ps c] is [(q − c) mod q], so [exp ps h (neg_exponent
    ps c)] is [h^-c] for every subgroup element [h] without a modular
    inversion.  Only exact for subgroup elements: callers check
    {!is_element} (or rely on the [elt] invariant) first. *)

val multi_exp : params -> (elt * Bignum.t) list -> elt
(** Product of [base^exp] over the list, each exponent reduced mod [q]
    (the empty product is [one]).  Bases with a fixed-base table share
    one comb pass; the rest share one interleaved (Straus) squaring
    chain, or take {!exp}'s [Bignum.pow_mod] when there is one.  The
    shape of Feldman share verification, of batch proof checks, and,
    with two pairs, of every DLEQ/Schnorr verification equation
    [g^z * h^-c], written [multi_exp ps [(h, neg_exponent ps c); (g,
    z)]].  Tables are looked up in list order, and the cache is
    move-to-front, so the last base ends at the front. *)

val inv : params -> elt -> elt
val elt_len : params -> int
(** Byte width of every encoded element: the byte length of [p]. *)

val elt_to_bytes : params -> elt -> string
(** Fixed-width ({!elt_len}) big-endian encoding. *)

val elt_of_bytes : params -> string -> elt option
(** Inverse of {!elt_to_bytes}: [None] unless the input is exactly
    {!elt_len} bytes naming a subgroup member. *)

val hash_to_elt : params -> domain:string -> string list -> elt
(** Random oracle into the group (reduce then square). *)

val random_exponent : params -> Prng.t -> Bignum.t

val hash_to_exponent : params -> domain:string -> string list -> Bignum.t
(** Random oracle into Z{_q} (Fiat–Shamir challenges). *)
