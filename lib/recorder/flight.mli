(** Campaign flight recorder: tiered telemetry for fault campaigns.

    The hot tier taps the {!Obs_trace} ring while a run executes and
    keeps bounded event windows only around anomalies (safety-oracle
    trips, [Out_of_steps] stalls, retransmit storms, back-pressure
    peaks); every window states how much history was elided or
    overwritten.  The durable tier aggregates per-run scalars into one
    [FLIGHT_<id>.json] per campaign — per-cell histograms, per-layer
    counter rollups, worst-run pointers — derived exclusively from
    seeded virtual-time runs and rendered canonically, so identical
    configurations produce byte-identical summaries (bar the wall
    time).  {!Compare} builds its regression gate on that property.

    The recorder depends only on sintra_obs: the campaign runner
    (lib/faults) feeds it plain strings and scalars through
    {!run_begin} / {!note_anomaly} / {!run_end}. *)

(** {2 Hot tier} *)

type window_policy = {
  trace_capacity : int;  (** hot ring size (records) per run *)
  window_span : float;  (** virtual-time radius captured around an anomaly *)
  max_window_events : int;  (** per-anomaly record cap *)
  max_anomalies_per_run : int;
  retransmit_storm : int;
      (** per-run retransmit delta that counts as a storm *)
  backpressure_peak : int;
      (** per-run link buffer peak that counts as a spike *)
}

val default_policy : window_policy

type anomaly_kind =
  | Safety_trip
  | Stall
  | Retransmit_storm
  | Backpressure_peak
  | State_transfer
      (** a replica adopted remote state via certified catch-up — rare
          enough that the surrounding trace window is always worth
          keeping *)

val kind_label : anomaly_kind -> string
(** ["safety-trip"], ["stall"], ["retransmit-storm"],
    ["backpressure-peak"] — the [kind] strings in FLIGHT files and the
    [flight_anomaly] counter labels. *)

val kind_of_label : string -> anomaly_kind option

type run_key = { protocol : string; policy : string; mix : string; seed : int }

val key_to_string : run_key -> string
(** ["protocol/policy/mix/seed"]. *)

type anomaly = {
  a_kind : anomaly_kind;
  a_at : float;  (** virtual time the anomaly was noted at *)
  a_detail : string;
  a_window : Obs_trace.record list;  (** bounded hot window, oldest first *)
  a_elided : int;  (** in-window records cut by the per-anomaly cap *)
}

type run_flight = {
  f_key : run_key;
  f_decided : bool;
  f_gating : bool;  (** effectively reliable: liveness violations gate *)
  f_decide_clock : float option;
  f_steps : int;
  f_safety : int;
  f_liveness : int;
  f_retransmits : int;
  f_buffer_peak : int;
  f_counters : (Obs_registry.labels * string * int) list;
      (** this run's counter deltas (registry diff), for layer rollups *)
  f_trace : Obs_trace.stats;
      (** per-run tracer deltas, incl. ring overwrites ([records_dropped]) *)
  f_anomalies : anomaly list;
}

type recorder

val create : ?policy:window_policy -> obs:Obs.t -> unit -> recorder
(** Installs a fresh bounded tracer on [obs] (so spans/points recorded
    by the stack land in the recorder's ring). *)

val run_begin : recorder -> now:(unit -> float) -> unit
(** Start a run: bind the tracer clock to the new simulator's virtual
    clock, clear the ring, snapshot the registry for per-run deltas. *)

val note_anomaly :
  recorder -> ?at:float -> detail:string -> anomaly_kind -> unit
(** Note an anomaly at virtual time [at] (default: the current clock);
    its hot window is cut at {!run_end}.  Retransmit storms and
    back-pressure peaks are derived automatically from the run's
    registry delta — callers typically only report {!Safety_trip} and
    {!Stall}. *)

val run_end :
  recorder ->
  key:run_key ->
  decided:bool ->
  gating:bool ->
  decide_clock:float option ->
  steps:int ->
  safety:int ->
  liveness:int ->
  buffer_peak:int ->
  unit
(** Close the run: compute the registry delta, derive storm/peak
    anomalies, cut bounded windows around every noted anomaly (capped
    per run), and mirror ring-overwrite counts and anomaly kinds into
    the registry ([trace_dropped_events] under layer ["obs"],
    [flight_anomaly] under layer ["flight"]) — after the delta, so they
    appear in campaign-level snapshots without polluting the next run's
    delta. *)

val runs : recorder -> run_flight list
(** Completed runs, oldest first. *)

(** {2 Durable tier} *)

type cell = {
  c_protocol : string;
  c_policy : string;
  c_mix : string;
  c_runs : int;
  c_decided : int;
  c_safety : int;
  c_liveness : int;
  c_decide : Obs_histogram.t;  (** decide clocks of decided runs *)
  c_steps : Obs_histogram.t;
  c_retransmits : Obs_histogram.t;
  c_peak : Obs_histogram.t;
}

type worst = {
  w_slowest : (run_key * float) option;  (** largest decide clock *)
  w_undecided : run_key option;  (** first run that never decided *)
  w_retransmits : (run_key * int) option;
  w_peak : (run_key * int) option;
}

type summary = {
  s_id : string;
  s_config : Obs_json.t;  (** opaque configuration echo from the caller *)
  s_runs : int;
  s_decided : int;
  s_safety : int;
  s_liveness : int;
  s_gating_liveness : int;
  s_undecided_gating : int;  (** gating runs that never decided *)
  s_cells : cell list;  (** execution order *)
  s_rollups : ((string * string) * int) list;
      (** [(layer, counter)] totals across all runs, sorted *)
  s_dropped_events : int;  (** hot-ring overwrites across all runs *)
  s_truncated_runs : int;  (** runs whose ring overwrote at least once *)
  s_worst : worst;
  s_anomaly_counts : (anomaly_kind * int) list;
  s_anomalies : (run_key * anomaly) list;
      (** capped archive, safety trips first *)
}

val summarize : id:string -> config:Obs_json.t -> run_flight list -> summary

(** {2 JSON} *)

val gate : summary -> Report.gate list
(** Decided runs, safety and gating-liveness violations, ring
    overwrites, anomaly counts and undecided gating runs (violations
    and undecided gating runs limited to 0), then per cell the decided count
    (strict), decide-clock p95 ({!Obs_histogram.percentile}), mean steps
    and retransmits, and the buffer-peak max. *)

val to_json : wall:float -> obs:Obs.t -> summary -> Obs_json.t
(** The [flight] {!Report}: derived from seeded virtual-time runs only,
    so identical configurations give identical bytes apart from
    [wall_time_s]. *)
