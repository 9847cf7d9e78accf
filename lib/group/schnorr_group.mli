(** Schnorr group: prime-order-[q] subgroup of Z{_p}{^*} for a safe prime
    [p = 2q + 1] — the discrete-log setting of the threshold coin (Cachin,
    Kursawe & Shoup) and of the Shoup–Gennaro TDH2 cryptosystem.

    This module owns every group decision.  An {!elt} is abstract: the
    only ways to get one are the group's own constructors ({!one},
    {!generator}, {!mul}, {!exp}, {!exp_g}, {!multi_exp}, {!hash_to_elt})
    and the decoder {!elt_of_bytes}, which is the one place membership
    is tested.  So every [elt] a protocol holds is a subgroup member, and
    no caller re-checks one.  Exponents are plain [Bignum.t] values in
    Z{_q}; their nonces, responses, range check and fixed-width encoding
    live here too, so a larger group or another group kind changes this
    module alone. *)

type cache
(** Mutable per-params cache of fixed-base exponentiation tables; opaque
    to callers, populated lazily by {!prepare_base} / {!exp_g}. *)

type elt
(** A member of the order-[q] subgroup (a quadratic residue mod [p]). *)

type params = private { p : Bignum.t; q : Bignum.t; g : elt; cache : cache }

val params_equal : params -> params -> bool

val default : ?bits:int -> unit -> params
(** Deterministic, memoized parameters with a [bits]-bit safe prime
    (default 128; toy-sized for simulation speed — all algorithms are
    size-agnostic), shared by tests and benches. *)

val unsafe_params : p:Bignum.t -> q:Bignum.t -> g:Bignum.t -> params
(** Wrap raw values as [params] with an empty table cache and {e no
    validation whatsoever}: [g] becomes an [elt] unchecked.  For
    benchmarks that need arbitrary-size moduli without paying for
    safe-prime generation.  Never use with values received from another
    party. *)

(** {1 Elements} *)

val one : params -> elt
val generator : params -> elt
val elt_equal : elt -> elt -> bool
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

val multi_exp : params -> (elt * Bignum.t) list -> elt
(** Product of [base^exp] over the list, each exponent reduced mod [q]
    (the empty product is [one]).  Bases with a fixed-base table share
    one comb pass; the rest share one interleaved (Straus) squaring
    chain, or take {!exp}'s [Bignum.pow_mod] when there is one.  The
    shape of Feldman share verification and of batch proof checks.
    Tables are looked up in list order, and the cache is move-to-front,
    so the last base ends at the front. *)

val recommit : params -> g:elt -> z:Bignum.t -> h:elt -> c:Bignum.t -> elt
(** [g^z * h^-c], the commitment a Schnorr or DLEQ verifier recomputes
    from a response [z] and challenge [c].  [h^-c] is [h^((q - c) mod
    q)], exact because [h] is a subgroup member: no inversion.  Runs
    [multi_exp ps [(h, -c); (g, z)]], in that order, so [g] ends at the
    front of the table cache. *)

val elt_len : params -> int
(** Byte width of every encoded element: the byte length of [p]. *)

val elt_to_bytes : params -> elt -> string
(** Fixed-width ({!elt_len}) big-endian encoding. *)

val elt_of_bytes : params -> string -> elt option
(** Inverse of {!elt_to_bytes}, and the one membership test: [None]
    unless the input is exactly {!elt_len} bytes naming a subgroup
    member.  For a safe prime the subgroup is the quadratic residues, so
    the test is a Jacobi symbol, not an exponentiation. *)

val hash_to_elt : params -> domain:string -> string list -> elt
(** Random oracle into the group (reduce then square). *)

(** {1 Exponents} *)

val order : params -> Bignum.t
(** [q], the modulus of the exponent field, for sharing schemes over
    Z{_q}. *)

val random_exponent : params -> Prng.t -> Bignum.t

val hash_to_exponent : params -> domain:string -> string list -> Bignum.t
(** Random oracle into Z{_q}: Fiat–Shamir challenges, and the
    deterministic (RFC-6979 style) nonces of proofs and signatures. *)

val response : params -> r:Bignum.t -> c:Bignum.t -> x:Bignum.t -> Bignum.t
(** [(r + c * x) mod q]: a proof's response to challenge [c] for
    witness [x] and nonce [r], and the step of a linear combination of
    exponents. *)

val is_exponent : params -> Bignum.t -> bool
(** [0 <= z < q]: the range check on a response from another party. *)

val exponent_len : params -> int
(** Byte width of every encoded exponent: the byte length of [q]. *)

val exponent_to_bytes : params -> Bignum.t -> string
(** Fixed-width ({!exponent_len}) big-endian encoding. *)

val exponent_of_bytes : params -> string -> Bignum.t option
(** Inverse of {!exponent_to_bytes}: [None] unless the input is exactly
    {!exponent_len} bytes naming a value below [q]. *)
