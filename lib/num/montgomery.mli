(** Montgomery (REDC) arithmetic for odd moduli.

    Internal fast-path layer: {!Bignum} chooses when to route an
    exponentiation here (odd, sufficiently large moduli).  Every
    product is one REDC, picked per modulus by {!create}: a generated
    straight-line kernel for the limb counts the stack deploys, the
    generic product-scanning loop for every other.  Moduli,
    bases, exponents and results are little-endian base-2{^31} limb
    magnitudes as in {!Limbs}.  Montgomery residues are private to this
    module: little-endian base-2{^28} limbs, zero-padded to exactly the
    [k] limbs of the modulus, and only meaningful with respect to the
    context that produced them. *)

type ctx
(** Precomputed data for one odd modulus of [k] 28-bit limbs:
    -m{^-1} mod 2{^28}, R mod m and R{^2} mod m with R = 2{^28k}. *)

val create : int array -> ctx option
(** [create m] builds a context for the normalized magnitude [m] and
    picks its product routine from k (see {!mul_into}).  Returns [None]
    when [m] is zero or even (REDC requires odd moduli). *)

val create_cached : int array -> ctx option
(** Like {!create} but consults a small process-global move-to-front
    cache first, so repeated exponentiations modulo the same prime or
    RSA modulus pay for the context setup once. *)

val to_mont : ctx -> int array -> int array
(** Convert a magnitude (any length; reduced mod m if needed) into a
    Montgomery residue. *)

val from_mont : ctx -> int array -> int array
(** Convert a Montgomery residue back to a normalized magnitude. *)

val mul : ctx -> int array -> int array -> int array
(** Montgomery product of two residues below m: [a * b * R^-1 mod m],
    by {!mul_into} into a fresh residue. *)

val mul_into :
  ctx -> int array -> int array -> int array -> int -> int array -> unit
(** [mul_into ctx u a b boff r] writes [a * b * R^-1 mod m] into the
    first k limbs of [r], reading [b] at limbs [boff, boff + k); [u] is
    k limbs of scratch.  The one product every kernel below uses: a
    straight-line product-scanning REDC when {!create} found one for k
    (4, 5 and 7 limbs: 96-bit RSA primes, the 128-bit group, a 192-bit
    RSA modulus), the generic loop otherwise, with the same result.
    [r] may alias [a], or [b] at [boff = 0].  Raises
    [Invalid_argument] when an array is shorter than k limbs. *)

val pow_multi : ctx -> (int array * int array) list -> int array
(** [pow_multi ctx [(b1, e1); ...]] = product of [bi^ei mod m] as a
    normalized magnitude, by Straus interleaving: one squaring chain for
    the whole product, with a 4-, 2- or 1-bit window per base for
    exponents of at least 96, at least 24 and fewer bits.  The one
    variable-base exponentiation: a single pair is a plain windowed
    [b^e].  Bases are any magnitudes (reduced mod m); the empty product
    and all-zero exponents yield 1 reduced mod m. *)

type comb
(** A fixed-base Lim–Lee comb with 8 teeth: for a base [b] and [c]
    columns, the Montgomery residues of the 255 products
    [prod_{j in u} b^(2^(j·c))], [u = 1..255], in one flat array. *)

val comb_build : ctx -> base:int array -> bits:int -> comb
(** [comb_build ctx ~base ~bits] tables [base] (any magnitude; reduced
    mod m) for exponents of at most [bits] bits: ⌈bits/8⌉ columns. *)

val comb_exp : ctx -> (comb * int array) list -> int array
(** [comb_exp ctx [(t1, e1); ...]] = product of [bi^ei mod m] as a
    normalized magnitude: one pass over the columns with squarings and
    one accumulator shared by every term, and one conversion out of
    Montgomery form.  Each [ei] must fit its comb; the empty product is
    1 reduced mod m. *)
