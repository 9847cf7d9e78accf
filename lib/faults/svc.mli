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
    crash mid-campaign followed by {!Service.revive}. *)

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

val variants_for : service_kind -> variant list -> variant list
(** Filter a variant sweep down to what the kind supports: the notary
    runs over secure causal broadcast, which has no recovery wrapper, so
    [Crash_rejoin] is dropped for it. *)

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

val prepare : config -> Sweep.env
(** Deal the shared keyring once (dealing dominates setup cost). *)

val timeline : config -> variant -> Sweep.timeline
(** The variant's faults: none ([Benign]), lossy chaos from the start
    ([Drop_arq]), or the victim crashed at 30% of the completed
    certificates and revived at 70% ([Crash_rejoin]). *)

val run_one :
  Sweep.env -> config -> kind:service_kind -> variant:variant -> seed:int ->
  run_result
(** One seeded campaign run; see the module header for the shape. *)

type report = {
  config : config;
  results : run_result list;  (** in execution order *)
  skipped : (service_kind * variant * string) list;
      (** configured cells the sweep refused, with the reason (the
          notary's secure causal broadcast has no recovery wrapper, so
          it cannot host crash-rejoin); surfaced in the summary and the
          JSON artifact rather than silently shrinking the matrix *)
  obs : Obs.t;
}

val run : ?progress:(int * int -> unit) -> config -> report
(** The full sweep: kinds x supported variants x seeds. *)

val safety_count : report -> int
val liveness_count : report -> int
val completed_total : report -> int
val target_total : report -> int
val cert_failures_total : report -> int
val fast_hits_total : report -> int
val reads_total : report -> int

val plain_log_peak : report -> int
(** Max delivered-log high-water across runs of checkpointed (Plain)
    kinds — the bounded-memory evidence the report limits. *)

(** {2 Report output} *)

val out_path : string -> string
(** [out_path id] is ["BENCH_SVC_<id>.json"] — except the conventional
    [id = "svc"], which maps to plain ["BENCH_SVC.json"]. *)

val to_json : id:string -> wall:float -> report -> Obs_json.t
(** The [svc] {!Report}; its gate: safety violations, certificate
    failures and missed requests (per-run shortfalls summed), each
    limited to 0, requests per 1k steps, fast-path rate, the GC'd log
    peak (limited to [v_mem_bound]), client retries and timeouts, and
    whether reads ran with no fast-path hit (limited to 0). *)

val pp_summary : Format.formatter -> report -> unit
