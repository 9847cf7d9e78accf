(** Span-based tracer over a bounded ring buffer.

    Spans mark intervals of a protocol instance's life (an RBC echo
    phase, an ABBA round, an ABC epoch) against a caller-supplied clock
    — under the simulator, the virtual clock.  Points are zero-length
    records (a delivery, a decision).  Completed records land in a
    fixed-capacity ring that overwrites the oldest when full, counting
    what it drops; [to_jsonl]/[of_jsonl] round-trip the buffer as one
    JSON object per line. *)

type record = {
  id : int;  (** > 0 for spans, 0 for points *)
  name : string;
  layer : string;  (** protocol layer: "rbc", "abba", "abc", ... *)
  tag : string;  (** instance tag, e.g. the composed protocol tag *)
  party : int;  (** -1 when not bound to a party *)
  src : int;  (** message source for delivery points; -1 otherwise *)
  depth : int;  (** spans open when this record began *)
  t_start : float;
  mutable t_end : float;  (** [nan] while the span is still open *)
  mutable detail : string;
}

type t

val create : ?capacity:int -> now:(unit -> float) -> unit -> t
(** [capacity] defaults to 8192 completed records.
    @raise Invalid_argument if [capacity < 1]. *)

val span_begin :
  t ->
  ?party:int ->
  ?src:int ->
  ?tag:string ->
  ?detail:string ->
  layer:string ->
  string ->
  int
(** Open a span; returns its id (always > 0). *)

val span_end : t -> ?detail:string -> int -> unit
(** Close a span by id.  Ignores id 0 and unknown/already-closed ids, so
    callers can keep "no span" as 0 without guarding. *)

val point :
  t ->
  ?party:int ->
  ?src:int ->
  ?tag:string ->
  ?detail:string ->
  layer:string ->
  string ->
  unit
(** Record a zero-length event. *)

val records : t -> record list
(** Completed records oldest-first, then still-open spans by start
    time. *)

val open_count : t -> int
(** Number of spans begun but not yet ended. *)

type stats = {
  spans_started : int;
  spans_ended : int;
  points_recorded : int;
  records_dropped : int;  (** completed records overwritten by the ring *)
}

val stats : t -> stats
val clear : t -> unit

val truncated : t -> bool
(** True once the ring has overwritten at least one completed record —
    i.e. any exported window may be missing its oldest history. *)

val window :
  t -> around:float -> span:float -> max_events:int -> record list * int
(** Records whose start time lies within [around ± span], oldest first,
    capped to the [max_events] closest to the anomaly (earlier records
    are elided first); the second component counts the elided in-window
    records. *)

val record_to_json : record -> Obs_json.t
val record_of_json : Obs_json.t -> record option

val to_jsonl : t -> string
val of_jsonl : string -> (record list, string) result
