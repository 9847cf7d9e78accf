(** Reliable point-to-point channel layer: the substrate that realizes
    the paper's Section 2.1 assumption of reliable authenticated links
    on top of a lossy transport.

    Each endpoint keeps, per peer, a sliding window of sequenced DATA
    frames awaiting acknowledgement, retransmitted on a timer with
    exponential backoff and deterministic jitter; receivers suppress
    duplicates (exactly-once delivery, deliberately {e unordered} — the
    asynchronous protocols above tolerate reordering, so there is no
    head-of-line blocking) and answer with cumulative + selective ACKs.

    The retransmit buffer is bounded: at most [window] frames per peer
    are in flight, and further sends wait in a FIFO backlog that drains
    as ACKs arrive — an unreachable peer back-pressures the sender
    (observable via the [link_buffer_peak] gauge and a tagged
    ["backpressure"] observability point) instead of growing the pending
    network without bound.

    All jitter randomness derives from [policy.seed] and the party id:
    equal seeds give equal retransmit schedules, keeping simulated runs
    exactly reproducible.

    Obs integration (registry of the [obs] handle, labels
    [layer=link]): counters [link_retransmit], [link_dup_suppressed],
    [link_ack_bytes]; gauge [link_buffer_peak]; points tagged
    ["retransmit"] / ["backpressure"] when a tracer is installed. *)

type 'm frame =
  | Raw of 'm
      (** unsequenced passthrough — link-off deployments and raw
          injections; delivered directly, never acked or deduplicated *)
  | Data of { seq : int; payload : 'm }  (** sequenced, per (src, dst) *)
  | Ack of { cum : int; sel : int list }
      (** every seq <= [cum] plus each seq in [sel] has been received *)

val raw : 'm -> 'm frame

val payload : 'm frame -> 'm option
(** The carried payload ([None] for ACKs). *)

val frame_size : ('m -> int) -> 'm frame -> int
(** Lift a payload wire-size estimate to frames.  [Raw] costs exactly
    the payload estimate — a link-off deployment reports byte-identical
    metrics to the pre-link transport; DATA/ACK add the {!Codec}
    link-frame header overheads. *)

val frame_summary : ('m -> string) -> 'm frame -> string
(** Lift a payload summary to frames; [Raw] renders exactly as the
    payload. *)

type policy = {
  rto : float;  (** initial retransmission timeout (virtual time) *)
  backoff : float;  (** RTO multiplier per unanswered retransmission *)
  max_rto : float;  (** backoff ceiling *)
  jitter : float;
      (** each armed timer waits [rto * (1 + jitter * u)], [u] uniform
          in [0, 1) from the deterministic per-party stream *)
  window : int;  (** max unacked DATA frames per peer *)
  seed : int;  (** jitter PRNG seed, mixed with the party id *)
}

val default_policy : policy
(** [rto = 300], [backoff = 2], [max_rto = 4000], [jitter = 0.1],
    [window = 32], [seed = 0x114c]. *)

val validate_policy : policy -> unit
(** @raise Invalid_argument on non-positive [rto]/[window], [backoff]
    below 1, [max_rto] below [rto], or negative [jitter]. *)

type 'm t
(** One party's link endpoint: [n] transmit windows and [n] receive
    watermarks, one per peer (including the self-channel). *)

val create :
  ?obs:Obs.t ->
  policy:policy ->
  me:int ->
  n:int ->
  raw_send:(int -> 'm frame -> unit) ->
  timer:(delay:float -> (unit -> unit) -> unit) ->
  deliver:(src:int -> 'm -> unit) ->
  unit ->
  'm t
(** [raw_send] puts a frame on the (lossy) wire; [timer] schedules the
    retransmit/delayed-ack callbacks ({!Proto_io.timer} under
    [Stack.deploy]); [deliver] receives each payload exactly once. *)

val set_deliver : 'm t -> (src:int -> 'm -> unit) -> unit
(** Replace the delivery callback (deployment glue needs this to tie
    the knot between the endpoint and the protocol handler). *)

val send : 'm t -> int -> 'm -> unit
(** Reliably send to a peer.  Peers outside [0, n) (e.g. simulator
    client slots) have no endpoint to ack, so the payload passes
    through as [Raw]. *)

val broadcast : 'm t -> 'm -> unit
(** {!send} to every peer [0 .. n-1], including self. *)

val handle : 'm t -> src:int -> 'm frame -> unit
(** Feed one received frame through the link machinery: [Raw] delivers
    directly, [Data] deduplicates / delivers / acks, [Ack] clears the
    transmit window and drains the backlog. *)

(** {2 Crash-rejoin resynchronization}

    A peer that crashed and came back restarts its endpoint at seq 1
    while the surviving side's watermarks — and any stale in-flight
    frames — remember the dead incarnation; naive resets reuse sequence
    numbers and silently lose the new incarnation's payloads to
    dup-suppression.  These two calls resynchronize a channel pair the
    TCP way: sequence numbers only ever move forward. *)

val prepare_rejoin : 'm t -> peer:int -> int * int
(** Serving side, on a rejoin request from [peer]: drop all transmit
    state toward it (the dead incarnation can never ack the old frames),
    keep our [next_seq] monotone, and fast-forward the receive watermark
    past every seq the dead incarnation could still have in flight (at
    most [window] beyond the highest seen).  Returns
    [(expect, start)]: the peer should expect our frames from [expect]
    (our next_seq) and emit its own from [start].  Call once per rejoin
    episode; a second call invalidates the first episode's [start]. *)

val rejoin : 'm t -> peer:int -> expect:int -> start:int -> unit
(** Rejoining side: adopt a peer's {!prepare_rejoin} resume points —
    expect its frames from [expect] (stale pre-reset traffic lands at or
    below the watermark and is suppressed) and emit our own from
    [start].  Monotone (uses max), so repeated replies for the same
    episode are idempotent; resume points below 1 are ignored as
    malformed. *)

(** {2 Introspection} *)

val in_flight : 'm t -> int -> int
(** Unacked DATA frames currently in flight to a peer ([<= window]). *)

val backlog : 'm t -> int -> int
(** Payloads waiting behind a full window for a peer. *)

val buffer_peak : 'm t -> int
(** Highest [in_flight + backlog] depth seen for any single peer. *)

val retransmits : 'm t -> int
val dup_suppressed : 'm t -> int

val rto_current : 'm t -> int -> float
(** The peer channel's current (possibly backed-off) RTO. *)
