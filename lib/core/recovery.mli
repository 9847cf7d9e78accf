(** Crash recovery for the atomic-broadcast stack: certified
    checkpoints, log truncation, and a catch-up/state-transfer path for
    rejoining or lagging replicas.

    Every [interval] rounds each replica snapshots its ordered state at
    the round boundary (identical at every honest party), hashes the
    canonical snapshot frame and collects threshold-signature shares
    over it; once a set of endorsers that surely contains an honest
    party combines, the snapshot plus signature form a {e checkpoint
    certificate} and the delivered-log prefix and per-round protocol
    state below the boundary are garbage-collected ({!Abc.truncate}).

    A replica revived after a crash — or one that notices checkpoint
    shares for rounds far beyond its own — fetches the latest
    certificate plus log suffix from its peers on the io's
    {!Proto_io.field-unsequenced} send (its link state is gone, the
    server's is stale), rejects any reply whose certificate fails
    verification,
    resynchronizes the ARQ channel pair via {!Link.prepare_rejoin} /
    {!Link.rejoin}, and installs the first state on which a
    surely-honest-containing set of peers agrees exactly.

    With [interval = 0] and no fetch traffic the wrapped {!Abc} behaves
    bit-identically to a bare one: checkpointing never fires and no
    extra messages exist.

    {b Scope: this wrapper covers the plain atomic broadcast only.}
    Secure causal broadcast ({!Scabc}) deliberately has no recovery
    hook: a revived replica would need its threshold-decryption key
    share re-issued before it could help open post-revival ciphertexts,
    and handing it the old share from a snapshot would defeat the point
    of proactive refresh (a mobile adversary could harvest shares from
    crashed disks).  Until re-keying of decryption shares rides the
    epoch-reconfiguration path ({!Epoch}), confidential deployments
    refuse crash-rejoin rather than fake it — the service campaign
    ({!Svc}) reports such cells as skipped with this reason instead of
    silently shrinking its sweep matrix. *)

type msg =
  | App of Abc.msg  (** the wrapped atomic-broadcast traffic *)
  | Ckpt_share of { round : int; hash : string; share : Keyring.sig_share }
      (** one replica's endorsement of the boundary snapshot it hashed *)
  | Fetch of { epoch : int }  (** catch-up request (unsequenced send) *)
  | State of {
      epoch : int;
      ck : string;  (** latest certified checkpoint frame, [""] if none *)
      suffix : string list;  (** delivered log past the checkpoint *)
      round : int;
      expect : int;  (** link resume: expect my DATA from this seq *)
      start : int;  (** link resume: emit your DATA from this seq *)
    }  (** a peer's answer: certified prefix, live suffix, ARQ resume *)

type t

val create :
  ?policy:Abc.policy ->
  ?interval:int ->
  io:msg Proto_io.t ->
  tag:string ->
  deliver:(string -> unit) ->
  unit ->
  t
(** Wrap an {!Abc} instance (created internally, [deliver] passed
    through) with the recovery layer.  [interval] is the checkpoint
    period in rounds ([0], the default, disables checkpointing
    entirely).  A snapshot carries the digest history and an empty
    application blob.  Raises [Invalid_argument] on a negative
    interval. *)

val handle : t -> src:int -> msg -> unit
val submit : t -> string -> unit
(** Atomically broadcast a payload through the wrapped {!Abc}. *)

val abc : t -> Abc.t
(** The wrapped instance — for log/round introspection in tests and
    experiments. *)

val start_catch_up : t -> unit
(** Begin (or restart, under a fresh epoch) the fetch protocol: request
    state from every peer and keep re-requesting every 350 virtual
    time units until a valid agreeing reply quorum installs. *)

val certified_round : t -> int
(** Boundary round of the latest certificate held ([0] if none). *)

val transfers : t -> int
(** Completed state-transfer installs at this replica. *)

val transfer_bytes : t -> int
(** Total bytes of certificate + suffix adopted via state transfer. *)

val rejected_replies : t -> int
(** Catch-up replies dropped for a forged or malformed certificate. *)

val set_on_transfer : t -> (bytes:int -> round:int -> unit) -> unit
(** Hook fired after each successful install — the flight recorder
    notes its state-transfer anomaly window from here. *)

val msg_size : Keyring.t -> msg -> int

(** {2 Deployment} *)

type deployment

val deploy :
  ?wrap:(int -> msg Sim.handler -> msg Sim.handler) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  ?interval:int ->
  sim:msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  deliver:(int -> string -> unit) ->
  unit ->
  deployment
(** One recovery-wrapped node per server, attached through
    {!Stack.attach} (link-off Raw passthrough or link-on ARQ endpoints;
    the endpoint's rejoin hooks reach the node through its io).
    [interval] defaults to [8] here — a deployment of this subsystem
    wants checkpoints; pass [0] to measure the GC-off baseline.  [wrap]
    corrupts parties at the payload level exactly as in {!Stack.deploy}.
    Also installs the ABC stall probe. *)

val nodes : deployment -> t array

val revive : deployment -> int -> t
(** {!Stack.revive} (un-crash the slot, attach a fresh amnesiac node —
    honest even if the dead incarnation was wrapped), then start its
    catch-up.  Returns the new node (the [nodes] array is
    updated in place). *)
