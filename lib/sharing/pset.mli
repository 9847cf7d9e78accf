(** Sets of parties as machine-word bit masks (parties 0..61).

    The architecture targets small static server sets (the paper's
    examples use 9 and 16 servers), so a native [int] is sufficient and
    allows exhaustive enumeration of adversary structures. *)

type t = int

val max_parties : int
val empty : t

val full : int -> t
(** [full n] is [{0, ..., n-1}]. *)

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val singleton : int -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val equal : t -> t -> bool

val complement : int -> t -> t
(** [complement n s] relative to [full n]. *)

val card : t -> int
val of_list : int list -> t
val to_list : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool

val iter_subsets : int -> (t -> unit) -> unit
(** Enumerate all subsets of [{0..n-1}]; refuses [n > 24]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
