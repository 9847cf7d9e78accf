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

type config = {
  core : Sweep.core;
  protocols : protocol list;
  policies : policy_spec list;
  mixes : mix list;
  payloads : int;  (** atomic-broadcast payloads per run *)
  abc_policy : Abc.policy;
      (** batching / pipelining policy applied to every ABC run (the
          same policy at every party, as batching requires) *)
  link : Link.policy option;
      (** reliable link layer under every deployment ([None] = off, the
          seed behaviour); flips {!link_restores} policies to
          liveness-gating *)
}

(** {2 Built-in policies and mixes} *)

val drop_policy : ?rate:float -> unit -> policy_spec
(** Lossy links: every delivery attempt dropped with probability [rate]
    (default 0.02).  Not reliable on its own; the link layer restores
    it. *)

val dup_reorder_policy : ?rate:float -> unit -> policy_spec
(** Duplication and extra reordering at probability [rate] (default
    0.1) each.  Reliable. *)

val partition_policy : n:int -> unit -> policy_spec
(** Halves the servers for virtual time [\[50, 400)], then heals.
    Reliable. *)

val default_config :
  ?seeds:int ->
  ?seed_base:int ->
  ?n:int ->
  ?t:int ->
  ?rsa_bits:int ->
  ?group_bits:int ->
  ?protocols:protocol list ->
  ?policies:policy_spec list ->
  ?mixes:mix list ->
  ?payloads:int ->
  ?abc_policy:Abc.policy ->
  ?link:Link.policy ->
  ?max_steps:int ->
  unit ->
  config
(** Defaults: 50 seeds from 1, n = 4 / t = 1, toy 192-bit RSA and
    128-bit group, both protocols, all built-in policies and mixes,
    2 payloads, [Abc.default_policy] (unbatched, window 1), link off,
    200k steps. *)

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

val campaign : config -> (cell, run_result) Sweep.campaign
(** Each cell's timeline is its policy's chaos spec from the start; a
    run takes start-time chaos steps only (anything else is
    [Invalid_argument]).  Each decided run's clock feeds a per-protocol
    ["decide_time"] histogram under layer ["faults"], and each run's link
    buffer peak goes to the flight recorder.  Besides the acceptance
    rows, the gate has per cell (["<protocol>/<policy>/<mix>"]) its
    decided runs (strict), decide-clock p95, mean steps and
    retransmits and the buffer-peak max; the [worst] member points at
    the slowest, first undecided, most-retransmitting and
    highest-peak runs. *)

val gating_liveness_count : run_result list -> int
(** Liveness violations under effectively reliable policies (natively
    reliable, or lossy-but-link-restored) — the only liveness
    violations that falsify the paper's claims. *)
