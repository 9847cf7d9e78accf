(** Reliable broadcast: optimized Bracha–Toueg (paper, Section 3),
    generalized to arbitrary Q{^3} adversary structures via the monotone
    quorum predicates of Section 4.2.

    Guarantees, for corruption sets inside the structure: consistency
    (honest parties deliver the same payload or none), validity (an
    honest sender's payload is delivered by all), totality (if one honest
    party delivers, all do). *)

type msg = Send of string | Echo of string | Ready of string

type t

val create :
  io:msg Proto_io.t -> sender:int -> deliver:(string -> unit) -> t
(** One instance per (tag, sender); tags are separated by the parent's
    message wrapping. *)

val broadcast : t -> string -> unit
(** Start the broadcast; only valid at the sender. *)

val handle : t -> src:int -> msg -> unit

val msg_size : msg -> int
(** Approximate wire size in bytes (metrics). *)

val msg_summary : msg -> string
(** Short rendering for simulator traces. *)
