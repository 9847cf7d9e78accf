(** Sustained-load service campaigns: closed-loop clients driving the
    CA / directory / notary services through the full request pipeline
    (ordered submissions, read-only fast path, resend-based loss
    recovery) with certificate, dedup and memory oracles and a
    machine-readable BENCH_SVC report.

    Each run deploys one service kind over the appropriate broadcast
    flavour (notary over secure causal, the rest over plain atomic
    broadcast with checkpoint GC), attaches a small fleet of clients in
    closed loop — every client keeps a bounded window of requests in
    flight until its quota of completed reply certificates is met — and
    mixes reads and writes over a bounded entity space so the read-only
    fast path actually serves cached state.  Variants re-run the same
    workload under lossy chaos with an ARQ engine link, and under a
    crash mid-campaign followed by {!Service.revive}.  The whole sweep
    is one {!Sweep.campaign}, whose report is of kind [svc]. *)

type service_kind = Ca_svc | Directory_svc | Notary_svc

val kind_label : service_kind -> string
(** ["ca"] / ["directory"] / ["notary"]. *)

type variant =
  | Benign  (** no faults *)
  | Drop_arq  (** lossy chaos on every link; ARQ endpoints for engine
                  traffic; clients survive on protocol-level resends *)
  | Crash_rejoin
      (** one replica hard-crashes mid-campaign and is revived via
          certified state transfer; Plain-mode kinds only *)

val variant_label : variant -> string
(** ["benign"] / ["drop-arq"] / ["crash-rejoin"]. *)

type config = {
  v_core : Sweep.core;
  v_requests : int;  (** completed certificates per run, all clients *)
  v_clients : int;
  v_window : int;  (** per-client in-flight bound (closed loop) *)
  v_read_frac : float;  (** fraction of submissions routed read-only *)
  v_keyspace : int;  (** entity-space bound, so reads hit prior writes *)
  v_interval : int;  (** checkpoint period for Plain kinds (GC on) *)
  v_drop : float;  (** chaos drop rate for the [Drop_arq] variant *)
  v_abc_policy : Abc.policy;
  v_link : Link.policy;
  v_kinds : service_kind list;
  v_variants : variant list;
  v_mem_bound : int;  (** the limit on the GC'd delivered-log peak *)
}

val default_config :
  ?seeds:int ->
  ?seed_base:int ->
  ?n:int ->
  ?t:int ->
  ?rsa_bits:int ->
  ?group_bits:int ->
  ?requests:int ->
  ?clients:int ->
  ?window:int ->
  ?read_frac:float ->
  ?keyspace:int ->
  ?interval:int ->
  ?drop:float ->
  ?abc_policy:Abc.policy ->
  ?link:Link.policy ->
  ?kinds:service_kind list ->
  ?variants:variant list ->
  ?max_steps:int ->
  ?mem_bound:int ->
  unit ->
  config

type run_result = {
  vr_kind : service_kind;
  vr_variant : variant;
  vr_seed : int;
  vr_target : int;  (** the run's completion quota *)
  vr_completed : int;  (** certificates delivered to callbacks *)
  vr_verified : int;  (** of those, re-verified by the harness *)
  vr_cert_failures : int;  (** harness re-checks failed + client internal *)
  vr_reads : int;  (** submissions routed through {!Service.Client.query} *)
  vr_fast_hits : int;
  vr_fallbacks : int;
  vr_retries : int;
  vr_timeouts : int;  (** abandoned requests (the loop re-submits) *)
  vr_rejected : int;  (** forged/ill-bound replies clients dropped *)
  vr_ordered : int;  (** sum over never-crashed replicas *)
  vr_executed : int;
  vr_dup_suppressed : int;
  vr_log_peak : int;  (** max delivered-log high-water across replicas *)
  vr_victim : int;  (** crashed replica, or -1 *)
  vr_violations : Oracle.violation list;
  vr_steps : int;
  vr_clock : float;  (** virtual completion time *)
}

type cell = service_kind * variant
(** Labelled e.g. ["ca/crash-rejoin"].  Its default timeline: none
    ([Benign]), lossy chaos from the start ([Drop_arq]), or the victim
    crashed at 30% of the completed certificates and revived at 70%
    ([Crash_rejoin]). *)

val campaign : config -> (cell, run_result) Sweep.campaign
(** Kinds × variants, without the cells a kind cannot host: the
    notary runs over secure causal broadcast, which has no recovery
    wrapper, so it drops [Crash_rejoin].  The report's [skipped] member
    lists the refused cells with the reason. *)
