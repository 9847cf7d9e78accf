(** Cross-run regression diffing over {!Report} gates.

    [compare OLD NEW] treats the first report as the baseline and the
    second as the candidate, matches their gate rows by name and
    classifies every delta.  Strict rows (safety violations,
    gating-liveness violations, decided counts) regress on any
    worsening; thresholded rows tolerate a worsening of
    [max(1e-9, 0.10 * |baseline|)], so byte-stable reruns compare
    equal; info rows (wall time, raw counters) are reported but never
    classified.  Structural mismatches — different kinds or run counts,
    a gate row on one side only, a row that changed direction, an
    invalid gate — are errors ([Error _]), not regressions: the files do
    not describe the same experiment. *)

type verdict = Improved | Regressed | Neutral | Informational

type row = {
  metric : string;
  better : Report.better;
  strict : bool;
  baseline : float;
  candidate : float;
  verdict : verdict;
}

type report = {
  kind : Report.kind;
  rows : row list;  (** in baseline gate order *)
  regressed : int;
  improved : int;
}

val compare_docs :
  baseline:Obs_json.t -> candidate:Obs_json.t -> (report, string) result

val compare_files : string -> string -> (report, string) result
(** [compare_files baseline candidate]. *)

val ok : report -> bool
(** No regressed rows. *)

val pp_report : Format.formatter -> report -> unit
