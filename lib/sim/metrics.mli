(** Counters collected by the network simulator (read by the message-
    complexity experiments).

    Two views of the same events.  The mutable fields count one
    simulator's traffic since its creation; callers read them directly.
    When created with an active observability handle ({!create}
    [~obs]), every update is also added to the handle's registry under
    layer ["sim"] — counters with the same names plus a ["msg_bytes"]
    size histogram.  A name registered twice is the same counter, so
    the registry view is cumulative over every simulator created with
    that handle (the view the bench harness snapshots and diffs). *)

type t = private {
  mutable messages_sent : int;  (** point-to-point sends *)
  mutable bytes_sent : int;  (** estimated wire bytes ([Sim]'s [size]) *)
  mutable deliveries : int;  (** messages handed to a live handler *)
  mutable drops : int;
      (** every undelivered message: crashed destination, missing
          handler, or chaos-policy loss *)
  mutable chaos_drops : int;  (** the chaos-policy share of [drops] *)
  mutable chaos_dups : int;  (** chaos-made duplicate deliveries *)
  mutable chaos_reorders : int;  (** chaos-deferred delivery attempts *)
  sink : sink option;
}

and sink
(** Registry mirror; absent unless created with an active [~obs]. *)

val create : ?obs:Obs.t -> unit -> t
(** Defaults to [Obs.noop]: plain fields only, no registry mirror. *)

val incr_sent : t -> bytes:int -> unit
(** One send of [bytes] estimated wire bytes. *)

val incr_deliveries : t -> unit
val incr_drops : t -> unit

val incr_chaos_drops : t -> unit
(** A chaos-policy loss; the caller also counts it in {!incr_drops}. *)

val incr_chaos_dups : t -> unit
val incr_chaos_reorders : t -> unit
