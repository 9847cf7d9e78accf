(** Deterministic pseudo-random generator (splitmix64).

    Drives reproducible simulation schedules and key generation.  Every
    experiment in this repository is seeded, so all results are exactly
    reproducible. *)

type t

val create : seed:int -> t

val next_int64 : t -> int64

val bits : t -> int -> int
(** [bits t b] is uniform in [\[0, 2{^b})]; requires [0 <= b <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bytes : t -> int -> string

val split : t -> t
(** Derive an independently seeded child generator (advances the parent). *)

val bignum_bits : t -> int -> Bignum.t
(** Uniform in [\[0, 2{^nbits})]. *)

val bignum_below : t -> Bignum.t -> Bignum.t
(** Uniform in [\[0, bound)] by rejection sampling. *)
