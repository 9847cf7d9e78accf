(* Cross-run regression diffing over report gates.

   [sintra compare OLD NEW] loads two reports of the same kind, matches
   their gate rows by name, and classifies every delta as improved /
   regressed / neutral.  The first file is the baseline, the second the
   candidate; any regression makes the comparison fail, which is what
   turns a checked-in baseline into a CI gate.

   Three classification regimes, as each row states:

   - strict rows (safety violations, gating-liveness violations,
     decided counts) regress on ANY worsening — one new safety trip is a
     regression no threshold excuses;

   - thresholded rows (decide-time percentiles, retransmit totals,
     buffer peaks, crypto op counts) regress only when the candidate is
     worse by more than [max(1e-9, 0.10 * |baseline|)], so byte-stable
     reruns compare equal and honest noise stays neutral;

   - info rows (wall time, raw counters) are reported but never
     classified: they vary by machine, not by code under test.

   Structural mismatches — different kinds or run counts, a row on one
   side only, or a row that changed direction — are errors, not
   regressions: the two files do not describe the same experiment, so a
   verdict would be meaningless. *)

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
  rows : row list;
  regressed : int;
  improved : int;
}

(* A thresholded row tolerates this relative worsening, with this
   absolute floor. *)
let rel = 0.10
let abs_eps = 1e-9

let classify ~better ~strict ~baseline ~candidate =
  (* worse > 0 means the candidate moved in the bad direction *)
  let worse =
    match better with
    | Report.Lower -> candidate -. baseline
    | Report.Higher | Report.Info -> baseline -. candidate
  in
  let tol =
    if strict then 0.0
    else Float.max abs_eps (rel *. Float.abs baseline)
  in
  if better = Report.Info then Informational
  else if worse > tol then Regressed
  else if worse < -.tol then Improved
  else Neutral

let ( let* ) = Result.bind

let metric_is m (g : Report.gate) = g.metric = m

(* Rows of [xs] with no namesake in [ys]: a structural error. *)
let only_in name xs ys =
  match
    List.filter
      (fun (g : Report.gate) -> not (List.exists (metric_is g.metric) ys))
      xs
  with
  | [] -> Ok ()
  | missing ->
    Error
      (Printf.sprintf "gate rows only in %s: %s" name
         (String.concat ", "
            (List.map (fun (g : Report.gate) -> g.metric) missing)))

let compare_docs ~baseline ~candidate =
  let* a = Report.header baseline in
  let* b = Report.header candidate in
  let* () =
    if a.kind = b.kind then Ok ()
    else
      Error
        (Printf.sprintf "kind mismatch: %s vs %s" (Report.kind_label a.kind)
           (Report.kind_label b.kind))
  in
  let* () =
    let show = Option.fold ~none:"-" ~some:string_of_int in
    if a.runs = b.runs then Ok ()
    else
      Error
        (Printf.sprintf
           "run counts differ (%s vs %s): not the same experiment shape"
           (show a.runs) (show b.runs))
  in
  let* () = only_in "baseline" a.gate b.gate in
  let* () = only_in "candidate" b.gate a.gate in
  let pairs =
    List.map
      (fun (g : Report.gate) -> (g, List.find (metric_is g.metric) b.gate))
      a.gate
  in
  let* () =
    match
      List.find_opt
        (fun ((g : Report.gate), (c : Report.gate)) ->
          c.better <> g.better || c.strict <> g.strict)
        pairs
    with
    | Some (g, _) ->
      Error (Printf.sprintf "gate row %S changed direction" g.metric)
    | None -> Ok ()
  in
  let rows =
    List.map
      (fun ((g : Report.gate), (c : Report.gate)) ->
        { metric = g.metric;
          better = g.better;
          strict = g.strict;
          baseline = g.value;
          candidate = c.value;
          verdict =
            classify ~better:g.better ~strict:g.strict
              ~baseline:g.value ~candidate:c.value })
      pairs
  in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  Ok
    { kind = a.kind;
      rows;
      regressed = count Regressed;
      improved = count Improved }

let compare_files a b =
  let* baseline = Report.read_file a in
  let* candidate = Report.read_file b in
  compare_docs ~baseline ~candidate

(* ---------- rendering ------------------------------------------------- *)

let verdict_label = function
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Neutral -> "neutral"
  | Informational -> "info"

let pp_report fmt (r : report) =
  Format.fprintf fmt "kind %s: %d metrics, %d improved, %d regressed@."
    (Report.kind_label r.kind) (List.length r.rows) r.improved r.regressed;
  List.iter
    (fun row ->
      let delta = row.candidate -. row.baseline in
      Format.fprintf fmt "  %-9s %-34s %-6s %-9s %14.2f -> %14.2f  (%+.2f)@."
        (verdict_label row.verdict)
        row.metric
        (Report.better_label row.better)
        (match (row.better, row.strict) with
        | Report.Info, _ -> ""
        | _, true -> "strict"
        | _, false -> "threshold")
        row.baseline row.candidate delta)
    r.rows;
  if r.regressed > 0 then
    Format.fprintf fmt "REGRESSION: %d metric(s) worsened@." r.regressed
  else Format.fprintf fmt "no regressions@."

let ok (r : report) = r.regressed = 0
