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

type config = {
  j_core : Sweep.core;
  j_payloads : int;
  j_interval : int;  (** checkpoint period in rounds *)
  j_drop : float;  (** chaos drop rate (the link layer restores) *)
  j_abc_policy : Abc.policy;
  j_link : Link.policy;
  j_scenarios : scenario list;
  j_variants : bool list;  (** forged-server variants to sweep *)
  j_mem_payloads : int;
      (** bounded-memory probe stream length; 0 runs no probe *)
}

val default_config :
  ?seeds:int ->
  ?seed_base:int ->
  ?n:int ->
  ?t:int ->
  ?rsa_bits:int ->
  ?group_bits:int ->
  ?payloads:int ->
  ?interval:int ->
  ?drop:float ->
  ?abc_policy:Abc.policy ->
  ?link:Link.policy ->
  ?scenarios:scenario list ->
  ?variants:bool list ->
  ?max_steps:int ->
  ?mem_payloads:int ->
  unit ->
  config

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
  m_payloads : int;
  m_gc_on_peak : int;  (** delivered-log high-water, checkpoint GC on *)
  m_gc_on_retired : int;  (** per-round structures retired *)
  m_gc_on_ckpt_round : int;  (** last certified boundary *)
  m_gc_off_peak : int;  (** unbounded baseline: equals the stream *)
}

val memory_probe : Sweep.env -> config -> seed:int -> memory_probe
(** One sustained-load stream (no faults, link off), run twice —
    checkpoint interval from the config, then interval 0. *)

val campaign : config -> (cell, run_result) Sweep.campaign
(** After the sweep, the memory probe (unless [j_mem_payloads = 0])
    runs at [seed_base]: the report's [memory] member and its limited
    "GC'd log peak" row.  Every state transfer is a flight-recorder
    anomaly. *)

val forged_witnessed : run_result list -> bool
(** The forged sweep rejected the forger explicitly at least once.
    Per-run counts can be zero (the forged reply is a raw frame, so
    lossy chaos can eat every copy before the honest quorum installs);
    the per-run "never installed" guarantee is certificate verification
    plus the digest-history oracles. *)
