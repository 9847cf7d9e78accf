(** Signed arbitrary-precision integers.

    Pure-OCaml bignums backed by base-2{^31} limb arrays.  This module is
    the arithmetic substrate for every cryptographic component of the
    architecture (threshold coin, TDH2 encryption, RSA threshold
    signatures); the container provides no external bignum library. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt v] is [Some i] when [v] fits in a native [int]. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val neg : t -> t
val abs : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val geq : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division; the remainder carries the sign of the dividend.
    Raises [Division_by_zero]. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder, always in [\[0, |b|)]. *)

val rem_int : t -> int -> int
(** [rem_int a m] is [rem a (of_int m)] as a native int, for
    [0 < m < 2{^31}], computed limb by limb without allocating.  Raises
    [Invalid_argument] for any other [m]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val numbits : t -> int
(** Number of significant bits of the magnitude; [numbits zero = 0]. *)

val testbit : t -> int -> bool
val is_even : t -> bool
val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero].
    [gcd], {!egcd} and {!inv_mod} share one Lehmer engine: Euclid on
    the top 60 bits in native ints, with the quotient matrix applied to
    the full operands about once per 30 bits. *)

val egcd : t -> t -> t * t * t
(** [egcd a b] is [(g, u, v)] with [u*a + v*b = g = gcd a b], exactly
    the values of Euclid's algorithm with truncated division on the
    signed operands (so [g] may be negative when an operand is). *)

val jacobi : t -> t -> int
(** [jacobi a n] is the Jacobi symbol (a/n) in [{-1; 0; 1}] for odd
    positive [n] (raises [Invalid_argument] otherwise).  For prime [n]
    this decides quadratic residuosity without an exponentiation, which
    makes it the cheap subgroup-membership test for safe-prime Schnorr
    groups. *)

val add_mod : t -> t -> t -> t
val mul_mod : t -> t -> t -> t

val inv_mod : t -> t -> t option
(** Modular inverse, [None] when the operand is not coprime with the
    modulus. *)

val pow_mod : base:t -> exp:t -> modulus:t -> t
(** [pow_mod ~base ~exp ~modulus] is [base^exp mod modulus], reduced to
    [\[0, modulus)].

    Exponent-sign contract: [exp] must be non-negative — a negative
    exponent raises [Invalid_argument] (callers that need [b^-e] invert
    the base with {!inv_mod} first, since inversion only exists for
    operands coprime with the modulus).  [modulus] must be positive or
    [Invalid_argument] is raised.  Edge cases are short-circuited
    consistently: [modulus = 1] yields [0]; [exp = 0] yields [1]
    (including [0^0 = 1]); [base ≡ 0 (mod modulus)] with [exp > 0]
    yields [0].

    Odd moduli of at least two limbs are served by the one
    variable-base kernel, [Montgomery.pow_multi] with a single pair: a
    windowed ladder over Montgomery (REDC) arithmetic.  Even moduli,
    single-limb moduli and exponents of at most 4 bits take plain
    square-and-multiply. *)

val pow_multi_mod : (t * t) list -> modulus:t -> t
(** [pow_multi_mod [(b1, e1); ...] ~modulus] is the product of all
    [bi^ei mod modulus].  Zero exponents are dropped; a single remaining
    pair is one {!pow_mod}, and two or more share one squaring chain
    (Straus interleaving, [Montgomery.pow_multi]) when the modulus is
    odd.  The empty product is [1].  Same sign contract as
    {!pow_mod}. *)

(** Fixed-base exponentiation for long-lived bases.

    A table for base [b] modulo an odd [m] is a Lim–Lee comb with 8
    teeth: for exponents of at most [bits] bits and [c = ⌈bits/8⌉]
    columns, it holds the Montgomery residues of the 255 products
    [prod_{j in u} b^(2^(j·c))], [u = 1..255], in one flat array.  An
    exponentiation by a tabled base then costs [c − 1] squarings and at
    most [c] multiplications, all in Montgomery form: no long division
    and no per-call table. *)
module Fixed_base : sig
  type table

  val build : base:t -> modulus:t -> bits:int -> table
  (** [build ~base ~modulus ~bits] tables [base] (any integer, reduced
      mod [modulus]) for exponents of at most [bits] bits, at a cost of
      about [7·bits/8 + 247] Montgomery multiplications.  Raises
      [Invalid_argument] unless [modulus] is odd and positive and
      [bits >= 0]. *)

  val exp : (table * t) list -> t
  (** [exp [(t1, e1); ...]] is the product of [bi^ei mod modulus] over
      tables [ti] of bases [bi], all over the same modulus, in one pass
      over the columns ([Montgomery.comb_exp]): every term folds into
      one accumulator, tables of equal width share their squarings, and
      the result leaves Montgomery form once.  [exp [(t, e)]] equals
      {!pow_mod}; the empty product is [1].  Raises [Invalid_argument]
      when an exponent is negative or wider than its table, or when the
      moduli differ. *)
end

val to_string : t -> string
val of_string : string -> t
val to_hex : t -> string
val of_hex : string -> t

val to_bytes_be : ?len:int -> t -> string
(** Big-endian byte string of a non-negative value, zero-padded on the
    left to [len] bytes when given. *)

val of_bytes_be : string -> t
val pp : Format.formatter -> t -> unit
