(** Seed-sweep fault campaigns: seeds × chaos policies × corruption
    mixes per protocol, oracle-checked, as one {!Sweep.campaign} whose
    report is of kind [faults].

    Every run is fully determined by (protocol, policy, mix, seed), so
    any violation found by a sweep is replayable in isolation.  The
    corrupted set rotates through the maximal sets of the adversary
    structure across seeds. *)

type policy_spec = { p_name : string; p_chaos : Sim.chaos }

type mix_kind =
  | Silent  (** receive everything, send nothing *)
  | Crash_at of float  (** honest until the given virtual time *)
  | Byz  (** the protocol-specific {!Byzantine} attack composition *)

type mix = { m_name : string; m_kind : mix_kind }

type protocol = P_abba | P_abc

val protocol_label : protocol -> string

type cell = protocol * policy_spec * mix
(** Labelled ["<protocol>/<policy>/<mix>"], e.g. ["abc/drop/silent"]. *)

(** {2 The atomic-broadcast workload} *)

type abc_workload = {
  nodes : Abc.t array;
  logs : string list array;  (** per party, newest first *)
  finished : unit -> bool;  (** every honest party delivered every payload *)
  check : unit -> Oracle.violation list;
      (** {!Oracle.check_abc} over the honest logs *)
}

val abc_workload :
  ?wrap:(int -> Abc.msg Sim.handler -> Abc.msg Sim.handler) ->
  ?on_link:(int -> Abc.msg Link.t -> unit) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  ?on_deliver:(int -> int -> unit) ->
  sim:Abc.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  honest:Pset.t ->
  string list ->
  abc_workload
(** Deploy ABC over [sim] ({!Stack.deploy_abc}) and submit the payloads
    round-robin from the [honest] parties; [on_deliver p k] runs after
    party [p]'s [k]-th delivery.  It neither crashes nor runs: the
    caller crashes the other parties, then runs until [finished]
    ({!Sweep.run_sim}).  The one ABC run path of this campaign, the
    bench experiments and the CLI. *)

(** {2 The campaign} *)

type run_result = {
  r_protocol : string;
  r_policy : string;
  r_mix : string;
  r_seed : int;
  r_corrupted : Pset.t;
  r_reliable : bool;
      (** effective reliability: every chaos spec of the timeline
          delivers eventually, or the link layer restores delivery —
          exactly the runs whose liveness violations gate *)
  r_violations : Oracle.violation list;
  r_decide_clock : float option;
      (** virtual time of the last honest decision; [None] when some
          honest party never finished *)
  r_decided : bool;  (** every honest party finished within [max_steps] *)
  r_chaos_drops : int;
  r_chaos_dups : int;
  r_chaos_reorders : int;
  r_link_retransmits : int;
      (** link-layer retransmissions attributed to this run (registry
          counter delta; 0 with the link off) *)
  r_steps : int;  (** simulator steps this run consumed *)
  r_buffer_peak : int;
      (** max link send-buffer depth across this run's endpoints (0 with
          the link off) — the back-pressure signal {!Schedule_search}
          maximises *)
}

val campaign :
  ?abc_policy:Abc.policy ->
  link:bool ->
  Sweep.core ->
  (cell, run_result) Sweep.campaign
(** Both protocols × the policies × the three mixes (silent, crash at
    virtual time 150, Byzantine), each ABC run with [core.size]
    payloads.  The policies are lossy links at [core.drop] (default
    0.02), duplication and reordering at 0.1 each, and the servers
    halved over virtual time [\[50, 400)]; with [~link:true] they are
    lossy links alone at [core.drop] (default 0.3), with the reliable
    link layer ({!Link.default_policy}) under every deployment, which
    makes them liveness-gating.  [abc_policy] (default
    {!Abc.default_policy}) batches and pipelines every ABC run; only a
    test sets it.  Step bound: 200k by default.

    Each cell's timeline is its policy's chaos spec from the start; a
    run takes start-time chaos steps only (anything else is
    [Invalid_argument]).  Each decided run's clock feeds a per-protocol
    ["decide_time"] histogram under layer ["faults"], and each run's link
    buffer peak goes to the flight recorder.  Besides the acceptance
    rows, the gate has per cell (["<protocol>/<policy>/<mix>"]) its
    decided runs (strict), decide-clock p95, mean steps and
    retransmits and the buffer-peak max; each run's [per_run] row adds
    to the head whether it gates and decided, its decide clock (null
    when undecided), retransmits and buffer peak.  The [config]
    constants are the ABC policy and the link policy (null with the
    link off). *)

val gating_liveness_count : run_result list -> int
(** Liveness violations under effectively reliable policies (natively
    reliable, or lossy-but-link-restored) — the only liveness
    violations that falsify the paper's claims. *)
