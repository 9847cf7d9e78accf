(** Campaign flight recorder: the trace windows behind a campaign's runs.

    Every seed sweep runs under one recorder.  It taps the
    {!Obs_trace} ring while a run executes and keeps bounded event
    windows only around anomalies (safety-oracle trips, [Out_of_steps]
    stalls, retransmit storms, back-pressure peaks, state transfers);
    every window states how much history was elided or overwritten.
    It keeps nothing the campaign's own run results already state: its
    share of a campaign report is its gate rows ({!summarize}) and the
    anomaly archive ({!records}).  Everything it
    reports derives from seeded virtual-time runs, so identical
    configurations give identical bytes.

    The recorder depends only on sintra_obs: the campaign engine
    (lib/faults' [Sweep]) feeds it plain strings and scalars through
    {!run_begin} / {!bind_clock} / {!note_anomaly} / {!run_end}. *)

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
    ["backpressure-peak"], ["state-transfer"] — the [kind] strings of
    the anomaly records, the [anomalies: <kind>] gate rows and the
    [flight_anomaly] counter labels. *)

type run_key = { cell : string; seed : int }
(** The campaign's cell label and the run's seed. *)

type anomaly = {
  a_kind : anomaly_kind;
  a_at : float;  (** virtual time the anomaly was noted at *)
  a_detail : string;
  a_window : Obs_trace.record list;  (** bounded hot window, oldest first *)
  a_elided : int;  (** in-window records cut by the per-anomaly cap *)
}

type run = {
  key : run_key;
  dropped : int;  (** ring overwrites during the run *)
  anomalies : anomaly list;
}

type recorder

val create : ?policy:window_policy -> obs:Obs.t -> unit -> recorder
(** A recorder with a fresh bounded tracer for [obs], installed by the
    first {!run_begin}: until a run begins, [obs] traces nothing. *)

val run_begin : recorder -> unit
(** Start a run: install the tracer on [obs] (so spans/points recorded
    by the stack land in the recorder's ring), clear the ring, note the
    retransmit count for the run's delta. *)

val bind_clock : recorder -> (unit -> float) -> unit
(** Stamp trace records and default anomaly times with this clock (the
    run's simulator clock). *)

val note_anomaly :
  recorder -> ?at:float -> detail:string -> anomaly_kind -> unit
(** Note an anomaly at virtual time [at] (default: the current clock);
    its hot window is cut at {!run_end}. *)

val note_buffer_peak : recorder -> int -> unit
(** The run's link send-buffer peak: one at or past the policy's
    [backpressure_peak] is a {!Backpressure_peak} at {!run_end}. *)

val run_end : recorder -> key:run_key -> unit
(** Close the run: derive storm/peak anomalies (the retransmit delta
    from the registry's [link_retransmit] counter under layer
    ["link"]), cut bounded windows around every noted anomaly (capped
    per run), and count ring overwrites and anomaly kinds in the
    registry ([trace_dropped_events] under layer ["obs"],
    [flight_anomaly] under layer ["flight"]), so they appear in the
    report's [metrics]. *)

val runs : recorder -> run list
(** Completed runs, oldest first. *)

val summarize : recorder -> Report.gate list
(** The recorder's gate rows: ring overwrites ([trace dropped_events]),
    the stall count (strict), the retransmit-storm and
    back-pressure-peak counts ([anomalies: <kind>]), then, as info rows,
    the runs whose ring overwrote records ([trace truncated runs]) and
    the safety-trip and state-transfer counts. *)

val records : recorder -> Obs_json.t list
(** The report's [anomalies] records: a capped archive, safety trips
    first, each with its kind, run key, time, detail and window. *)
