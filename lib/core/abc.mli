(** Atomic broadcast: total ordering of payloads via one validated
    multi-valued agreement per global round (Chandra–Toueg round
    structure in the Byzantine model; paper, Section 3).

    Per round every party signs and disseminates the oldest undelivered
    payload it knows, collects a big-quorum of validly signed proposals,
    and agrees (VBA with the signature check as external validity) on one
    such list, delivered in deterministic order.  Liveness and fairness:
    a payload known to the honest parties appears in every honest
    proposal and is delivered within a round.

    A {!policy} amortizes the per-round agreement cost: proposals carry
    {!Codec.encode_batch} frames of up to [max_batch_msgs] payloads
    (oldest-undelivered first, capped at [max_batch_bytes]), and up to
    [window] rounds run in flight at once with disjoint batches — a full
    window back-pressures instead of growing unbounded state.  The
    policy must be deployment-wide (all honest parties configured
    alike); {!default_policy} reproduces the unbatched, one-round
    behaviour exactly. *)

type policy = {
  max_batch_msgs : int;  (** payloads per proposal frame; 1 = no framing *)
  max_batch_bytes : int;  (** cap on summed payload bytes per frame *)
  window : int;
      (** rounds a party may have in flight at once: the cap, not a
          target.  The head round opens with any batch; a round behind
          it opens early only when another party started it, or with a
          batch at least as large as this party's own batch in the
          round ahead (a full batch always qualifies). *)
}

val default_policy : policy
(** [{ max_batch_msgs = 1; max_batch_bytes = 1 MiB; window = 1 }] — no
    framing, no pipelining. *)

type msg =
  | Request of string  (** payload relay ("send to all servers") *)
  | Proposal of int * string * string  (** round, payload, signature *)
  | Vba_msg of int * Vba.msg

type t

val create :
  ?policy:policy ->
  io:msg Proto_io.t ->
  tag:string ->
  deliver:(string -> unit) ->
  unit ->
  t
(** [deliver] is invoked in the agreed total order (identical at every
    honest party); duplicates are suppressed.  Raises [Invalid_argument]
    on a non-positive policy field. *)

val broadcast : t -> string -> unit
(** Atomically broadcast a payload: relay it to all servers on its first
    submission here, then order it.  A later submission of the same
    payload (a client resend) only enqueues it, and a delivered payload
    is never relayed again. *)

val handle : t -> src:int -> msg -> unit

val delivered_log : t -> string list
(** Delivered payloads still held locally, oldest first.  Before any
    {!truncate} this is the whole history; after one it is the suffix
    past the last certified checkpoint — exactly what a state-serving
    peer ships alongside the certified snapshot. *)

val current_round : t -> int
val pending : t -> string list

val in_flight : t -> int
(** Rounds this party has proposed in but not yet completed (bounded by
    the policy window). *)

val in_flight_rounds : t -> (int * int) list
(** [(round, proposals collected)] for each in-flight round, ascending —
    the per-round diagnostics the deployment's stall probe reports. *)

val memos : t -> (int * Proto_io.memo) list
(** The per-round verified-signature memos this party keeps, ascending
    by round.  Only rounds inside the window
    [[current_round, current_round + window)] have an open memo; a
    round's memo is closed (emptied) when the round delivers or is
    retired, and then forgotten. *)

val backlog : t -> int
(** Undelivered payloads not packed into any in-flight proposal —
    non-zero under back-pressure: the window is full, or the payloads
    wait for a batch as large as the round ahead's.  Each payload held
    on submission counts once in [abc_backpressure] (layer ["abc"]). *)

(** {2 Checkpointing: truncation and state transfer}

    Hooks for the recovery layer.  None of them is invoked by the
    protocol itself, so a deployment that never checkpoints behaves
    bit-identically to one built before these existed. *)

val delivered_count : t -> int
(** Total deliveries over the instance's lifetime, including the
    truncated prefix. *)

val delivered_digests : t -> string list
(** Digests of the whole delivered history, oldest first — never
    truncated (32 bytes per payload buy permanent dedup and the
    digest history a checkpoint snapshot carries). *)

val history_digest : t -> string
(** [Codec.history_digest (delivered_digests t)] in constant time: a
    SHA-256 context fed once per delivery and rebuilt by
    {!install_checkpoint}, finalized on a copy.  A checkpoint at a round
    boundary hashes this with {!delivered_count} ({!Codec.snapshot_hash})
    instead of encoding and hashing the whole history. *)

val base_len : t -> int
(** Deliveries certified away by checkpoints (length of the truncated
    prefix); [delivered_count t - base_len t] payloads remain in
    {!delivered_log}. *)

val log_len : t -> int
(** Payloads currently held in {!delivered_log}. *)

val log_peak : t -> int
(** High-water mark of {!log_len} — the boundedness evidence the
    recovery experiments report. *)

val retired_rounds : t -> int
(** Rounds of per-round protocol state retired by {!truncate} /
    {!install_checkpoint} so far, a round reduced to its tombstone
    included. *)

val relay_pending : t -> int
(** Payloads submitted and relayed here but not yet delivered: the
    relay-once state, a subset of {!pending}. *)

val digest_memo_len : t -> int
(** Entries of the payload-digest memo, at most {!log_len} plus the
    length of {!pending}: a delivered payload is memoized only while it
    sits in {!delivered_log}. *)

val set_boundary_hook : t -> (int -> unit) -> unit
(** Install a callback invoked with the new round number each time a
    round completes and delivery for it is done — the recovery layer
    snapshots at interval boundaries from here.  At the moment of the
    call the delivered state is exactly the round boundary's, which is
    identical at every honest party. *)

val truncate : t -> upto_round:int -> upto_len:int -> unit
(** Garbage-collect a certified prefix: drop the oldest
    [upto_len - base_len] payloads from {!delivered_log} and retire
    every per-round structure still held below [upto_round].  A
    delivered round already let go of its proposals, signatures and
    decision.  Its VBA keeps each proposal CBC that can still answer a
    late message as three flags; once every CBC has echoed and
    delivered, the VBA itself is gone and the round is a tombstone.
    What goes here is either of the two.  Dedup is preserved through the
    digest set.  Updates the [round_state_retired] counter
    and [abc_log_len] gauge (layer ["abc"]).  Raises [Invalid_argument]
    if [upto_len] exceeds {!delivered_count}. *)

val install_checkpoint :
  t -> round:int -> digests:string list -> suffix:string list -> unit
(** Adopt a verified remote state: [digests] is the certified digest
    history (oldest first), [suffix] the serving peers' uncertified
    payload suffix, [round] their current round.  Local deliveries are
    merged into the dedup set, per-round state below the adopted round
    is retired, suffix payloads not previously delivered here are
    replayed through the deliver callback in order, and ordering
    resumes from [round].  The caller must have verified the
    checkpoint certificate and reply quorum. *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string
