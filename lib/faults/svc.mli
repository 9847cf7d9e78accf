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

type run_result = {
  vr_kind : service_kind;
  vr_variant : variant;
  vr_seed : int;
  vr_target : int;  (** the run's completion quota *)
  vr_completed : int;  (** certificates delivered to callbacks *)
  vr_verified : int;  (** of those, re-verified by the harness *)
  vr_cert_failures : int;  (** accepted certificates the harness re-check failed *)
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

val campaign :
  ?clients:int ->
  ?window:int ->
  ?keyspace:int ->
  Sweep.core ->
  (cell, run_result) Sweep.campaign
(** Each run closes [core.size] reply certificates over [clients]
    (default 3) closed-loop clients, each with at most [window] (default
    4) requests in flight, 75% of them reads, over [keyspace] (default
    16) entities so reads hit earlier writes; only a test sets these
    three.  Plain kinds checkpoint every 2 rounds and their GC'd log
    peak is limited to 40; every kind batches 8 payloads with window 2;
    [Drop_arq] drops at [core.drop] (default 0.3); step bound 200M by
    default.

    Kinds × variants, without the cells a kind cannot host: the
    notary runs over secure causal broadcast, which has no recovery
    wrapper, so it drops [Crash_rejoin].  The [skipped] constant of the
    report's [config] lists the refused cells with the reason. *)
