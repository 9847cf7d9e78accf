(** Online epoch reconfiguration over the live stack: proactive share
    refresh and membership change (replica add/remove) agreed through
    the service's own total order.

    Replicas broadcast verifiable {!Proactive} packages as strict codec
    frames, countersign an advance body listing the exact frames they
    received first-hand (a Byzantine proposer cannot attribute
    fabricated packages to honest dealers), and carry the certified
    advance through the atomic broadcast.  Every replica installs the
    next sharing — same public key, fresh shares — at the same log
    position, so in-flight agreement rounds never stall and pre-boundary
    artifacts stay valid while pre-boundary shares become useless.

    A replica that was down across boundaries replays the
    self-certifying advance chain ([Epoch_pull] / [Epoch_push]) and
    recomputes the current sharing deterministically from epoch zero,
    composing with the recovery layer's ordered-state transfer. *)

type msg =
  | Rec of Recovery.msg  (** the wrapped recovery + atomic broadcast *)
  | Refresh of { epoch : int; frame : string }
      (** one dealer's ["SEP1"] / ["SER1"] package for [epoch] *)
  | Adv_prop of { body : string }  (** an ["SEA1"] advance proposal *)
  | Adv_share of { epoch : int; hash : string; share : Keyring.sig_share }
      (** endorsement share over an advance body's hash *)
  | Epoch_pull of { have : int }
      (** chain catch-up request (unsequenced send) *)
  | Epoch_push of { certs : string list }
      (** chain suffix (unsequenced send) *)

type t

val recovery : t -> Recovery.t

val submit : t -> string -> unit
(** Client payload into the wrapped atomic broadcast. *)

val epoch : t -> int
(** Epochs installed here (0 = the dealt sharing). *)

val sharing : t -> Dl_sharing.t
(** The current epoch's service sharing. *)

val excluded_total : t -> int
(** Dealers excluded since this node started (equivocation or invalid
    packages). *)

val set_on_advance : t -> (epoch:int -> sharing:Dl_sharing.t -> unit) -> unit

val begin_refresh : t -> unit
(** Open the next epoch as a proactive refresh: deal and broadcast this
    replica's zero-sharing and start collecting/endorsing. *)

val begin_reshare : t -> Adversary_structure.t -> unit
(** Open the next epoch as a membership change toward [structure]; a
    replica holding no current shares (it is being added) contributes
    no package but still endorses and installs. *)

val start_pull : t -> unit
(** Ask peers for the advance-chain suffix (unsequenced send, retried). *)

(** {2 Simulator deployment} *)

type deployment

val deploy :
  ?wrap:(int -> msg Sim.handler -> msg Sim.handler) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  ?interval:int ->
  ?seed:int ->
  sim:msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  sharing:Dl_sharing.t ->
  tag:string ->
  deliver:(int -> string -> unit) ->
  unit ->
  deployment
(** One node per simulator party, attached through {!Stack.attach}
    like {!Recovery.deploy}: [interval] configures the wrapped
    checkpointing, [seed] the per-node dealing randomness.  Packages
    and proposals are rebroadcast, and the chain pulled, every 400
    virtual time units until they land.  [deliver] receives
    application payloads only — certified advances are consumed at
    their total-order position. *)

val nodes : deployment -> t array

val revive : deployment -> int -> t
(** Kill-and-replace: {!Stack.revive} restarts [party] with fresh
    state; the recovery layer then transfers the ordered state while the
    epoch layer replays the advance chain.  The replacement is honest
    (a Byzantine [wrap] stays with the dead incarnation). *)
