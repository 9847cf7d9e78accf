(** Log-scale histograms with power-of-two buckets: bucket 0 holds every
    observation below 1.0, bucket [i >= 1] holds [\[2^(i-1), 2^i)], and
    the last of the 64 buckets is unbounded above.  Boundaries are exact
    (computed with [Float.frexp]), updates are O(1), and the footprint is
    fixed — suitable for an always-on sink. *)

type t

val n_buckets : int
(** 64. *)

val create : unit -> t
val copy : t -> t
val observe : t -> float -> unit

val bucket_index : float -> int
(** Index of the bucket an observation falls into. *)

val bucket_lower : int -> float
(** Inclusive lower bound of a bucket (0.0 for bucket 0). *)

val bucket_upper : int -> float
(** Exclusive upper bound ([infinity] for the last bucket). *)

val count : t -> int
val sum : t -> float
val min_value : t -> float option
val max_value : t -> float option
val mean : t -> float option
val bucket : t -> int -> int

val merge : t -> t -> t
(** Pointwise sum, as a fresh histogram. *)

val diff : t -> t -> t
(** [diff newer older]: observations recorded after [older] was taken
    (bucket-wise subtraction, clamped at zero; extremes kept from
    [newer]). *)

val percentile : t -> float -> float option
(** Conservative percentile estimate: the upper bound of the bucket
    containing the p-th ordered observation, capped at the true max. *)

val to_json : t -> Obs_json.t
(** Sparse rendering: only non-empty buckets, as [index, count] pairs. *)
