(* Campaign flight recorder: the trace windows behind a campaign's runs.

   While a run executes, a span tracer fills a bounded ring (the
   flight-recorder discipline: always on, bounded memory, the recent
   past is the interesting part).  The ring is only *kept* when
   something anomalous happened: a safety-oracle trip, an Out_of_steps
   stall, a retransmit storm, a back-pressure peak or a state transfer.
   Around each anomaly a bounded window of trace records is cut out of
   the ring; the rest is discarded, and every window states explicitly
   how much of its in-window history was elided (cap) or overwritten
   (ring truncation, the [dropped_events] counter).

   The campaign's own run results carry everything else (decisions,
   clocks, steps, retransmits, per-cell rows), so the recorder's share
   of the report is the anomaly archive and the gate rows of the ring
   accounting and the anomaly counts.

   This module knows nothing about protocols or campaigns: the campaign
   engine (lib/faults) feeds it via [run_begin] / [bind_clock] /
   [note_anomaly] / [run_end], passing plain strings and scalars.  The
   tracer is installed by the first [run_begin], so an engine that
   executes runs outside the recorder (the schedule search) traces
   nothing. *)

type window_policy = {
  trace_capacity : int;  (* hot ring size (records) per run *)
  window_span : float;  (* virtual-time radius captured around an anomaly *)
  max_window_events : int;  (* per-anomaly record cap *)
  max_anomalies_per_run : int;
  retransmit_storm : int;  (* per-run retransmit delta that counts as a storm *)
  backpressure_peak : int;  (* per-run link buffer peak that counts as a spike *)
}

let default_policy =
  { trace_capacity = 4096;
    window_span = 300.0;
    max_window_events = 48;
    max_anomalies_per_run = 4;
    retransmit_storm = 200;
    backpressure_peak = 48 }

type anomaly_kind =
  | Safety_trip
  | Stall
  | Retransmit_storm
  | Backpressure_peak
  | State_transfer

let kind_label = function
  | Safety_trip -> "safety-trip"
  | Stall -> "stall"
  | Retransmit_storm -> "retransmit-storm"
  | Backpressure_peak -> "backpressure-peak"
  | State_transfer -> "state-transfer"

(* Severity order, which is also the order of the capped archive:
   safety first. *)
let all_kinds =
  [ Safety_trip; Stall; Retransmit_storm; Backpressure_peak; State_transfer ]

type run_key = { cell : string; seed : int }

type anomaly = {
  a_kind : anomaly_kind;
  a_at : float;  (* virtual time the anomaly was noted at *)
  a_detail : string;
  a_window : Obs_trace.record list;  (* bounded hot window, oldest first *)
  a_elided : int;  (* in-window records cut by the per-anomaly cap *)
}

type run = {
  key : run_key;
  dropped : int;  (* ring overwrites during the run *)
  anomalies : anomaly list;
}

type recorder = {
  policy : window_policy;
  obs : Obs.t;
  tracer : Obs_trace.t;
  clock : (unit -> float) ref;
  mutable retx0 : int;
  mutable peak : int;
  mutable dropped0 : int;
  mutable notes : (anomaly_kind * float * string) list;  (* newest first *)
  mutable runs_rev : run list;
}

let dropped t = (Obs_trace.stats t.tracer).Obs_trace.records_dropped

(* Looked up, not registered, so a campaign without the link layer
   never registers the counter. *)
let retransmits obs =
  Option.value ~default:0
    (Obs_registry.find_counter (Obs.registry obs)
       ~labels:[ ("layer", "link") ] "link_retransmit")

let create ?(policy = default_policy) ~obs () =
  let clock = ref (fun () -> 0.0) in
  let tracer =
    Obs_trace.create ~capacity:policy.trace_capacity
      ~now:(fun () -> !clock ())
      ()
  in
  { policy;
    obs;
    tracer;
    clock;
    retx0 = 0;
    peak = 0;
    dropped0 = 0;
    notes = [];
    runs_rev = [] }

let run_begin t =
  Obs.set_tracer t.obs t.tracer;
  Obs_trace.clear t.tracer;
  t.notes <- [];
  t.peak <- 0;
  t.dropped0 <- dropped t;
  t.retx0 <- retransmits t.obs

let bind_clock t now = t.clock := now

let note_anomaly t ?at ~detail kind =
  let at = match at with Some a -> a | None -> !(t.clock) () in
  t.notes <- (kind, at, detail) :: t.notes

let note_buffer_peak t peak = t.peak <- max t.peak peak

let run_end t ~key =
  let retx = retransmits t.obs - t.retx0 in
  if retx >= t.policy.retransmit_storm then
    note_anomaly t Retransmit_storm
      ~detail:(Printf.sprintf "%d retransmissions in one run" retx);
  if t.peak >= t.policy.backpressure_peak then
    note_anomaly t Backpressure_peak
      ~detail:(Printf.sprintf "link buffer peaked at %d frames" t.peak);
  let overwritten = dropped t - t.dropped0 in
  (* Cut a bounded window out of the hot ring for each noted anomaly,
     oldest note first, capped per run. *)
  let anomalies =
    List.rev t.notes
    |> List.filteri (fun i _ -> i < t.policy.max_anomalies_per_run)
    |> List.map (fun (kind, at, detail) ->
           let w, elided =
             Obs_trace.window t.tracer ~around:at ~span:t.policy.window_span
               ~max_events:t.policy.max_window_events
           in
           { a_kind = kind; a_at = at; a_detail = detail; a_window = w;
             a_elided = elided })
  in
  (* Mirror the ring accounting and the anomaly kinds into the registry,
     so the report's metrics snapshot states them too. *)
  if overwritten > 0 then
    Obs.incr t.obs
      ~labels:[ ("layer", "obs") ]
      ~by:overwritten "trace_dropped_events";
  List.iter
    (fun a ->
      Obs.incr t.obs
        ~labels:[ ("layer", "flight"); ("kind", kind_label a.a_kind) ]
        "flight_anomaly")
    anomalies;
  t.runs_rev <- { key; dropped = overwritten; anomalies } :: t.runs_rev;
  t.notes <- []

let runs t = List.rev t.runs_rev

(* ---------- the report's share ----------------------------------------- *)

let max_archived_anomalies = 12

let key_json k =
  Obs_json.Obj [ ("cell", Obs_json.Str k.cell); ("seed", Obs_json.Int k.seed) ]

let anomaly_json (k, a) =
  Obs_json.Obj
    [ ("kind", Obs_json.Str (kind_label a.a_kind));
      ("run", key_json k);
      ("at", Obs_json.Float a.a_at);
      ("detail", Obs_json.Str a.a_detail);
      ("window_elided", Obs_json.Int a.a_elided);
      ( "window",
        Obs_json.Arr (List.map Obs_trace.record_to_json a.a_window) ) ]

(* Every run's archived anomalies with its key, in execution order. *)
let keyed t =
  List.concat_map (fun r -> List.map (fun a -> (r.key, a)) r.anomalies) (runs t)

let of_kind kind = List.filter (fun (_, a) -> a.a_kind = kind)

let summarize t =
  let dropped = List.map (fun r -> r.dropped) (runs t) in
  let all = keyed t in
  let count kind = float_of_int (List.length (of_kind kind all)) in
  Report.
    [ threshold Lower "trace dropped_events"
        (float_of_int (List.fold_left ( + ) 0 dropped));
      strict Lower "anomalies: stall" (count Stall);
      threshold Lower "anomalies: retransmit-storm" (count Retransmit_storm);
      threshold Lower "anomalies: backpressure-peak" (count Backpressure_peak);
      info "trace truncated runs"
        (float_of_int (List.length (List.filter (fun d -> d > 0) dropped)));
      info "anomalies: safety-trip" (count Safety_trip);
      info "anomalies: state-transfer" (count State_transfer) ]

(* Safety first, then stalls, storms, peaks and transfers; execution
   order within a kind; capped. *)
let records t =
  let all = keyed t in
  List.concat_map (fun k -> of_kind k all) all_kinds
  |> List.filteri (fun i _ -> i < max_archived_anomalies)
  |> List.map anomaly_json
