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
    report limits the GC'd peak to [gc_off - 1]. *)

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
  j_mem_payloads : int;  (** bounded-memory probe stream length *)
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

val prepare : config -> Sweep.env
(** Keyring dealt once, shared across runs, as in {!Campaign.prepare}. *)

val timeline : config -> scenario -> Sweep.timeline
(** The scenario's faults: lossy chaos from the start, the victim
    crashed (or isolated) at 35% of the stream and revived (or healed)
    at 75%. *)

val run_one :
  ?flight:Flight.recorder ->
  Sweep.env ->
  config ->
  scenario:scenario ->
  forged:bool ->
  seed:int ->
  run_result

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

type report = {
  config : config;
  results : run_result list;  (** in execution order *)
  memory : memory_probe option;
  obs : Obs.t;
}

val run :
  ?progress:(int * int -> unit) ->
  ?flight:Flight.recorder ->
  ?memory:bool ->
  config ->
  report
(** The full sweep: scenarios × variants × seeds, then the memory probe
    (unless [~memory:false]). *)

val safety_count : report -> int
val liveness_count : report -> int
val recovered_count : report -> int

val forged_witnessed : report -> bool
(** The forged sweep rejected the forger explicitly at least once.
    Per-run counts can be zero (the forged reply is a raw frame, so
    lossy chaos can eat every copy before the honest quorum installs);
    the per-run "never installed" guarantee is certificate verification
    plus the digest-history oracles. *)

val out_path : string -> string
(** [out_path id = "RECOV_<id>.json"]. *)

val to_json : id:string -> wall:float -> report -> Obs_json.t
(** The [recov] {!Report}; its gate: safety violations (limited to 0),
    recovered runs (limited to every run), liveness violations, state
    transfers, transfer bytes, simulator steps, the forged replies
    rejected (info), the GC'd log peak when the memory probe ran
    (limited to one below the GC-off peak), crash-rejoins without a
    state transfer and a forged sweep without a rejection (each limited
    to 0). *)

val pp_summary : Format.formatter -> report -> unit
