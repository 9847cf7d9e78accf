(** Reusable Byzantine behaviours.

    A behaviour is a handler transformer: given the corrupted party's
    context (simulator handle, shared keyring, party index, private PRNG)
    and its honest handler, it returns the handler actually installed.
    Behaviours compose, and {!wrap_of} applies one to every party of a
    [Pset.t] as the deployment installs its handler, so any set of the
    adversary structure can be corrupted wholesale — the quantification
    the paper's fault model requires.  This is the one way to corrupt a
    party.

    Corrupted parties hold the full keyring record, so forged objects go
    through the genuine signing paths: they pass every check that does
    not bind them to a statement, which is exactly what the protocols'
    justification machinery must reject. *)

type 'msg ctx = {
  sim : 'msg Link.frame Sim.t;
      (** the framed wire — a behaviour's own sends travel as [Link.Raw],
          bypassing the party's link sequencing (the adversary controls
          its local transport) while still reaching every handler *)
  keyring : Keyring.t;
  party : int;
  rng : Prng.t;  (** private per-party stream, split off the install seed *)
}

type 'msg t = 'msg ctx -> 'msg Sim.handler -> 'msg Sim.handler

(** {2 Generic behaviours} *)

val honest : 'msg t
(** Identity — the honest handler unchanged. *)

val silent : 'msg t
(** Receives everything, sends nothing, runs no protocol logic (a
    fail-silent party that never formally crashes). *)

val crash_at : float -> 'msg t
(** Behave honestly until the given virtual time, then [Sim.crash]. *)

val replayer : unit -> 'msg t
(** Behave honestly, but also rebroadcast each of the first 64 received
    messages verbatim once — stale/duplicate traffic from a
    correct-looking party. *)

val injector :
  budget:int -> ('msg ctx -> src:int -> 'msg -> (Sim.party * 'msg) list) -> 'msg t
(** Behave honestly, but on each of the first [budget] receipts also send
    every forged [(dst, msg)] the callback produces. *)

val equivocator :
  budget:int -> ('msg ctx -> src:int -> 'msg -> ('msg * 'msg) option) -> 'msg t
(** Run {e no} honest logic; for each of the first [budget] times the
    callback produces [(a, b)], send [a] to the lower half of the
    servers and [b] to the upper half. *)

val mutator : ('msg ctx -> src:int -> 'msg -> 'msg option) -> 'msg t
(** Transform inbound messages before the honest logic sees them
    ([None] = pass through unchanged). *)

val compose : 'msg t -> 'msg t -> 'msg t
(** [compose outer inner] wraps [inner]'s result with [outer]. *)

(** {2 Installation} *)

val wrap_of :
  sim:'msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  seed:int ->
  set:Pset.t ->
  'msg t ->
  int ->
  'msg Sim.handler ->
  'msg Sim.handler
(** A [?wrap] argument for {!Stack.deploy} and every deployment built
    on {!Stack.attach} ([Recovery], [Epoch], [Service]): it applies the
    behaviour to each party of [set] as its handler is installed (no
    window where the honest handler could run), at the payload level
    below any link endpoint — a corrupted party still acks and
    deduplicates.  Each corrupted party gets its own PRNG, split off
    [seed] in slot order.  A revived slot is attached honest. *)

(** {2 Protocol-specific forgeries} *)

module For_abba : sig
  val coin_forger : tag:string -> unit -> Abba.msg t
  (** Floods structurally valid coin shares whose group elements are
      garbled, so every DLEQ proof fails verification (on the first 32
      receipts). *)

  val support_equivocator : tag:string -> unit -> Abba.msg t
  (** Sends genuinely signed, conflicting SUPPORT endorsements — [true]
      to one half of the parties, [false] to the other (4 times). *)

  val byzantine : tag:string -> unit -> Abba.msg t
  (** The composition of both attacks. *)
end

module For_abc : sig
  val proposal_equivocator : tag:string -> unit -> Abc.msg t
  (** Sends validly signed, conflicting round proposals to the two
      halves of the parties (8 times). *)

  val proposal_replayer : unit -> Abc.msg t
  (** Replays captured proposals into the next round under their
      original (now round-mismatched) signature (on the first 32
      receipts). *)

  val byzantine : tag:string -> unit -> Abc.msg t
  (** The composition of both attacks. *)
end

(** Behaviours against the recovery layer's state-transfer path. *)
module For_recovery : sig
  val forged_server : unit -> Recovery.msg t
  (** Answers the first 64 catch-up [Fetch]es with a forged snapshot
      under a garbage certificate; otherwise honest.  The fetcher must reject
      the reply on certificate verification. *)
end

(** Behaviours against the replicated services. *)
module For_service : sig
  val forged_denial : Service.msg t
  (** Answers every client request at once with the denial
      [["denied"; "forged"]], signed with the party's own reply share,
      and runs no honest logic.  A client must not accept it. *)
end
