(** Crash-and-rejoin / partition-heal campaigns over the recovery layer.

    Each run streams payloads through a checkpointing, link-on
    {!Recovery.deploy}ment under lossy chaos, knocks one replica out
    mid-stream (hard crash + {!Recovery.revive}, or a healing network
    partition) and checks with {!Oracle.check_recovery} that the victim
    rejoins the {e whole} total order — certified-and-truncated prefix
    included — via state transfer.  The forged variant corrupts one
    survivor with {!Byzantine.For_recovery.forged_server}, so every such
    run also witnesses a forged snapshot being rejected on certificate
    verification.

    A bounded-memory probe runs one sustained stream with checkpoint GC
    on and off and reports the delivered-log high-water marks; the
    report limits the GC'd peak to [gc_off - 1].  The whole sweep is
    one {!Sweep.campaign}, whose report is of kind [recov]. *)

type scenario = Crash_rejoin | Partition_heal

val scenario_label : scenario -> string
(** ["crash-rejoin"] / ["partition-heal"]. *)

type run_result = {
  jr_scenario : scenario;
  jr_seed : int;
  jr_forged : bool;
  jr_victim : int;
  jr_recovered : bool;  (** full history present, no safety violation *)
  jr_transferred : bool;  (** victim installed via certified transfer *)
  jr_transfer_bytes : int;
  jr_rejected : int;  (** forged/malformed replies the victim dropped *)
  jr_log_peak : int;  (** max delivered-log high-water across honest *)
  jr_retired : int;  (** max per-round structures retired across honest *)
  jr_ckpt_round : int;  (** highest certified boundary across honest *)
  jr_violations : Oracle.violation list;
  jr_steps : int;
}

type cell = scenario * bool
(** A scenario and whether one survivor is a forged server; labelled
    e.g. ["crash-rejoin/forged"], ["partition-heal/plain"].  Its
    default timeline: lossy chaos from the start, the victim crashed
    (or isolated) at 35% of the stream and revived (or healed) at
    75%. *)

type memory_probe = {
  m_gc_on_peak : int;  (** delivered-log high-water, checkpoint GC on *)
  m_gc_on_retired : int;  (** per-round structures retired *)
  m_gc_on_ckpt_round : int;  (** last certified boundary *)
  m_gc_off_peak : int;  (** unbounded baseline: equals the stream *)
}

val memory_probe : Sweep.env -> payloads:int -> seed:int -> memory_probe
(** One sustained-load stream of [payloads] (no faults, link off), run
    twice — checkpoint interval 4, then interval 0. *)

val campaign : Sweep.core -> (cell, run_result) Sweep.campaign
(** Both scenarios, plain and forged, each run streaming [core.size]
    payloads through a checkpointing (every 4 rounds), batched (4
    payloads, window 2), link-on deployment under lossy chaos at
    [core.drop] (default 0.3); step bound 600k by default.  After the
    sweep, the memory probe runs at [seed_base] over 192 payloads: the
    limited "GC'd log peak" row and the info rows beside it (retired
    rounds, checkpoint round, the un-GC'd log peak).
    Every state transfer is a flight-recorder anomaly. *)

val forged_witnessed : run_result list -> bool
(** The forged sweep rejected the forger explicitly at least once.
    Per-run counts can be zero (the forged reply is a raw frame, so
    lossy chaos can eat every copy before the honest quorum installs);
    the per-run "never installed" guarantee is certificate verification
    plus the digest-history oracles. *)
