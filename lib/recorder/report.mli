(** The report envelope every machine-readable artifact shares, and its
    one layout.

    A report is one JSON object with fixed top-level members and no
    others:
    - [schema] (["sintra-report/1"]), [kind], [experiment],
      [wall_time_s], the [metrics] registry snapshot and the [gate]
      array, in every report;
    - [runs] and [per_run], one row per run, in every campaign and in
      TPUT;
    - [config], the settings, in every campaign and in BENCH_NUM;
    - [anomalies], the flight recorder's [records], in every campaign.

    Each gate row names one metric, the direction that counts as better,
    whether any worsening regresses ([strict]), its value and optionally
    a pass [limit]: the producer states what CI gates on and what the
    run must reach, so {!Compare} and [bench-check] never re-parse the
    other members.  No member restates a gate row's value: a total is a
    row, and what a run measured is its [per_run] row.

    This module also owns the one artifact writer and the envelope
    check. *)

type kind = Bench | Faults | Recov | Epoch | Svc

val kinds : kind list
val kind_label : kind -> string
(** ["bench"], ["faults"], ["recov"], ["epoch"], ["svc"]. *)

val kind_of_label : string -> kind option

val schema : string
(** ["sintra-report/1"]. *)

(** {2 Gate rows} *)

type better = Lower | Higher | Info
(** [Info] rows are reported but never classified (wall time, raw
    counters). *)

val better_label : better -> string
(** ["lower"], ["higher"], ["info"]. *)

type gate = {
  metric : string;
  better : better;
  strict : bool;
  value : float;
  limit : float option;
      (** the pass limit (JSON ["limit"], absent for none): a [Lower]
          row passes at or below it, a [Higher] row at or above it *)
}

val strict : better -> string -> float -> gate
(** Regresses on any worsening: safety violations, decided counts. *)

val threshold : ?limit:float -> better -> string -> float -> gate
(** Regresses only past {!Compare}'s tolerance. *)

val info : string -> float -> gate

val must : better -> string -> limit:float -> float -> gate
(** A {!strict} row with a pass limit: an acceptance condition. *)

val wall_metric : string
(** ["wall time (s)"], the info row every report carries. *)

val past_limits : gate list -> gate list
(** The rows whose value is past their limit: the one acceptance check
    [bench-check] and [sintra run] share. *)

val acceptance : kind -> experiment:string -> string list
(** The acceptance rows of the kind, and for [bench] of the experiment
    (each paper experiment's claim rows, [TPUT]'s invariant breaks,
    [NUM]'s two DLEQ batch rows; none for the C1/C2 timings), which
    {!header} requires present and limited. *)

val stated : kind -> string list
(** The rows the kind's reports state without a limit, which {!header}
    requires present: [bench]'s virtual time total and crypto-op
    counts. *)

(** {2 Writing} *)

val make :
  kind ->
  experiment:string ->
  wall:float ->
  obs:Obs.t ->
  gate:gate list ->
  ?per_run:Obs_json.t list ->
  ?config:Obs_json.t ->
  ?anomalies:Obs_json.t list ->
  unit ->
  Obs_json.t
(** The header, the gate (plus the {!wall_metric} row), then [per_run]
    with [runs] its length, [config], and [anomalies] holding the
    records, each when given. *)

val write : string -> Obs_json.t -> string
(** The one artifact writer: the document canonically (sorted members,
    one trailing newline) to the path; returns the path. *)

(** {2 Reading} *)

type 'a check = ('a, string) result

val field : Obs_json.t -> string list -> (Obs_json.t -> 'a option) -> 'a check
(** The member at a path, converted, or an error naming the path. *)

type header = {
  kind : kind;
  experiment : string;
  wall : float;
  runs : int option;
  gate : gate list;
}

val header : Obs_json.t -> header check
(** The envelope check: schema, a known kind, the layout — only the
    fixed members; a campaign kind with [runs], [per_run], [config] and
    [anomalies]; a bench report with no [anomalies], and [runs] only
    beside [per_run] — experiment, wall time, [runs] (positive for a
    campaign) matching the [per_run] row count, [config] an object,
    [anomalies] its [records] array alone, a [metrics] object, a gate of
    well-formed rows — finite values, a known [better], unique names, a
    finite limit only on a [Lower] or [Higher] row — including the
    {!wall_metric} row equal to [wall_time_s], the kind's {!stated} rows
    present and its {!acceptance} rows present and limited.  It does
    not check the limits themselves: see {!past_limits}. *)

val read_file : string -> Obs_json.t check
(** Parse a JSON file. *)
