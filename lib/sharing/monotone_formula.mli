(** Monotone boolean formulas over party indices, built from threshold
    gates Θ{_k}{^n} (paper, Section 4.2).

    A formula describes an access structure: [eval f s] says whether the
    party set [s] is qualified.  The same formulas drive the
    Benaloh–Leichter linear secret sharing scheme in {!Lsss}. *)

type t =
  | Leaf of int  (** party index *)
  | Threshold of int * t list  (** at least [k] of the children *)

val leaf : int -> t

val threshold : int -> t list -> t
(** [threshold k children]; requires [1 <= k <= |children|]. *)

val and_ : t list -> t
(** Θ{_n}{^n}. *)

val or_ : t list -> t
(** Θ{_1}{^n}. *)

val simple_threshold : n:int -> k:int -> t
(** [k]-out-of-[n] over parties [0..n-1]. *)

val weighted_threshold : weights:int list -> k:int -> t
(** Party [i] counts with weight [weights_i]; qualified at total weight
    [k].  The "several logical parties per physical party" encoding. *)

val eval : t -> Pset.t -> bool
val parties : t -> Pset.t
val size : t -> int

val leaves : t -> int list
(** Leaf owners in DFS order — the leaf numbering used by {!Lsss}. *)
