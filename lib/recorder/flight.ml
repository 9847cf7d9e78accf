(* Campaign flight recorder: tiered telemetry for fault campaigns.

   Tier 1 (hot): while a run executes, a span tracer fills a bounded
   ring (the flight-recorder discipline — always on, bounded memory, the
   recent past is the interesting part).  The ring is only *kept* when
   something anomalous happened: a safety-oracle trip, an Out_of_steps
   stall, a retransmit storm or a back-pressure peak.  Around each
   anomaly a bounded window of trace records is cut out of the ring; the
   rest is discarded, and every window states explicitly how much of its
   in-window history was elided (cap) or overwritten (ring truncation —
   the [dropped_events] counter).

   Tier 2 (durable): per-run scalars are aggregated into one
   FLIGHT_<id>.json per campaign — per-cell histograms (decide time,
   steps, retransmits, buffer peaks), per-layer counter rollups,
   worst-run pointers, anomaly records — wrapped in the shared report
   envelope.  Everything but the envelope's wall time is derived from
   seeded runs only (virtual time, registry deltas) and rendered
   canonically, so identical configurations produce byte-identical
   summaries: the property the compare engine's regression gate rests
   on.

   This module knows nothing about protocols or campaigns: the campaign
   runner (lib/faults) feeds it via [run_begin] / [note_anomaly] /
   [run_end], passing plain strings and scalars. *)

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

let kind_of_label = function
  | "safety-trip" -> Some Safety_trip
  | "stall" -> Some Stall
  | "retransmit-storm" -> Some Retransmit_storm
  | "backpressure-peak" -> Some Backpressure_peak
  | "state-transfer" -> Some State_transfer
  | _ -> None

let all_kinds =
  [ Safety_trip; Stall; Retransmit_storm; Backpressure_peak; State_transfer ]

(* Severity order for the capped anomaly archive: safety first. *)
let kind_rank = function
  | Safety_trip -> 0
  | Stall -> 1
  | Retransmit_storm -> 2
  | Backpressure_peak -> 3
  | State_transfer -> 4

type run_key = { protocol : string; policy : string; mix : string; seed : int }

let key_to_string k =
  Printf.sprintf "%s/%s/%s/%d" k.protocol k.policy k.mix k.seed

type anomaly = {
  a_kind : anomaly_kind;
  a_at : float;  (* virtual time the anomaly was noted at *)
  a_detail : string;
  a_window : Obs_trace.record list;  (* bounded hot window, oldest first *)
  a_elided : int;  (* in-window records cut by the per-anomaly cap *)
}

type run_flight = {
  f_key : run_key;
  f_decided : bool;
  f_gating : bool;  (* effectively reliable: liveness violations gate *)
  f_decide_clock : float option;
  f_steps : int;
  f_safety : int;
  f_liveness : int;
  f_retransmits : int;
  f_buffer_peak : int;
  f_counters : (Obs_registry.labels * string * int) list;
      (* this run's counter deltas, flattened for layer rollups *)
  f_trace : Obs_trace.stats;  (* incl. dropped_events (ring overwrites) *)
  f_anomalies : anomaly list;
}

type recorder = {
  policy : window_policy;
  obs : Obs.t;
  tracer : Obs_trace.t;
  clock : (unit -> float) ref;
  mutable snap0 : Obs_registry.snapshot;
  mutable stats0 : Obs_trace.stats;
  mutable notes : (anomaly_kind * float * string) list;  (* newest first *)
  mutable runs_rev : run_flight list;
}

let create ?(policy = default_policy) ~obs () =
  let clock = ref (fun () -> 0.0) in
  let tracer =
    Obs_trace.create ~capacity:policy.trace_capacity
      ~now:(fun () -> !clock ())
      ()
  in
  Obs.set_tracer obs tracer;
  { policy;
    obs;
    tracer;
    clock;
    snap0 = Obs.snapshot obs;
    stats0 = Obs_trace.stats tracer;
    notes = [];
    runs_rev = [] }

let run_begin t ~now =
  t.clock := now;
  Obs_trace.clear t.tracer;
  t.notes <- [];
  t.stats0 <- Obs_trace.stats t.tracer;
  t.snap0 <- Obs.snapshot t.obs

let note_anomaly t ?at ~detail kind =
  let at = match at with Some a -> a | None -> !(t.clock) () in
  t.notes <- (kind, at, detail) :: t.notes

let link_labels = [ ("layer", "link") ]

let counter_delta counters ?(labels = []) name =
  match
    List.find_opt
      (fun (ls, n, _) -> n = name && ls = List.sort compare labels)
      counters
  with
  | Some (_, _, v) -> v
  | None -> 0

let run_end t ~key ~decided ~gating ~decide_clock ~steps ~safety ~liveness
    ~buffer_peak =
  let snap1 = Obs.snapshot t.obs in
  let delta = Obs_registry.diff snap1 t.snap0 in
  let counters =
    List.filter_map
      (fun ((k : Obs_registry.key), v) ->
        match v with
        | Obs_registry.Vcounter c -> Some (k.Obs_registry.labels, k.name, c)
        | Obs_registry.Vgauge _ | Obs_registry.Vhistogram _ -> None)
      delta
  in
  let retransmits = counter_delta counters ~labels:link_labels "link_retransmit" in
  (* Derived anomalies from the per-run registry delta. *)
  if retransmits >= t.policy.retransmit_storm then
    note_anomaly t Retransmit_storm
      ~detail:(Printf.sprintf "%d retransmissions in one run" retransmits);
  if buffer_peak >= t.policy.backpressure_peak then
    note_anomaly t Backpressure_peak
      ~detail:(Printf.sprintf "link buffer peaked at %d frames" buffer_peak);
  let trace_stats =
    let s1 = Obs_trace.stats t.tracer and s0 = t.stats0 in
    { Obs_trace.spans_started = s1.Obs_trace.spans_started - s0.Obs_trace.spans_started;
      spans_ended = s1.Obs_trace.spans_ended - s0.Obs_trace.spans_ended;
      points_recorded = s1.Obs_trace.points_recorded - s0.Obs_trace.points_recorded;
      records_dropped = s1.Obs_trace.records_dropped - s0.Obs_trace.records_dropped }
  in
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
  (* Mirror the hot tier's accounting into the registry, so ordinary
     metric snapshots state how often windows were truncated and what
     anomaly kinds fired (satellite: dropped_events in snapshots).  This
     happens after the delta above, so it lands in campaign-level
     snapshots without polluting the next run's delta ([run_begin]
     re-snapshots). *)
  if trace_stats.Obs_trace.records_dropped > 0 then
    Obs.incr t.obs
      ~labels:[ ("layer", "obs") ]
      ~by:trace_stats.Obs_trace.records_dropped "trace_dropped_events";
  List.iter
    (fun a ->
      Obs.incr t.obs
        ~labels:[ ("layer", "flight"); ("kind", kind_label a.a_kind) ]
        "flight_anomaly")
    anomalies;
  t.runs_rev <-
    { f_key = key;
      f_decided = decided;
      f_gating = gating;
      f_decide_clock = decide_clock;
      f_steps = steps;
      f_safety = safety;
      f_liveness = liveness;
      f_retransmits = retransmits;
      f_buffer_peak = buffer_peak;
      f_counters = counters;
      f_trace = trace_stats;
      f_anomalies = anomalies }
    :: t.runs_rev;
  t.notes <- []

let runs t = List.rev t.runs_rev

(* ---------- durable tier: the campaign summary ----------------------- *)

type cell = {
  c_protocol : string;
  c_policy : string;
  c_mix : string;
  c_runs : int;
  c_decided : int;
  c_safety : int;
  c_liveness : int;
  c_decide : Obs_histogram.t;  (* decide clocks of decided runs *)
  c_steps : Obs_histogram.t;
  c_retransmits : Obs_histogram.t;
  c_peak : Obs_histogram.t;
}

type worst = {
  w_slowest : (run_key * float) option;  (* largest decide clock *)
  w_undecided : run_key option;  (* first run that never decided *)
  w_retransmits : (run_key * int) option;
  w_peak : (run_key * int) option;
}

type summary = {
  s_id : string;
  s_config : Obs_json.t;  (* opaque configuration echo from the caller *)
  s_runs : int;
  s_decided : int;
  s_safety : int;
  s_liveness : int;
  s_gating_liveness : int;
  s_undecided_gating : int;  (* gating runs that never decided *)
  s_cells : cell list;  (* first-seen order, which is execution order *)
  s_rollups : ((string * string) * int) list;  (* (layer, counter) totals *)
  s_dropped_events : int;  (* hot-ring overwrites across all runs *)
  s_truncated_runs : int;  (* runs whose ring overwrote at least once *)
  s_worst : worst;
  s_anomaly_counts : (anomaly_kind * int) list;
  s_anomalies : (run_key * anomaly) list;  (* capped archive *)
}

let max_archived_anomalies = 12

let label_value labels k =
  match List.assoc_opt k labels with Some v -> v | None -> ""

let summarize ~id ~config (runs : run_flight list) =
  let cells = Hashtbl.create 16 in
  let order = ref [] in
  let cell_of r =
    let key = (r.f_key.protocol, r.f_key.policy, r.f_key.mix) in
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
      let c =
        ref
          { c_protocol = r.f_key.protocol;
            c_policy = r.f_key.policy;
            c_mix = r.f_key.mix;
            c_runs = 0;
            c_decided = 0;
            c_safety = 0;
            c_liveness = 0;
            c_decide = Obs_histogram.create ();
            c_steps = Obs_histogram.create ();
            c_retransmits = Obs_histogram.create ();
            c_peak = Obs_histogram.create () }
      in
      Hashtbl.add cells key c;
      order := key :: !order;
      c
  in
  let rollups = Hashtbl.create 32 in
  let worst_slow = ref None and worst_undecided = ref None in
  let worst_retx = ref None and worst_peak = ref None in
  let anomaly_counts = Hashtbl.create 4 in
  let archived = ref [] in
  let dropped = ref 0 and truncated_runs = ref 0 in
  List.iter
    (fun r ->
      let c = cell_of r in
      let v = !c in
      (match r.f_decide_clock with
      | Some clk ->
        Obs_histogram.observe v.c_decide clk;
        (match !worst_slow with
        | Some (_, best) when best >= clk -> ()
        | _ -> worst_slow := Some (r.f_key, clk))
      | None ->
        if !worst_undecided = None then worst_undecided := Some r.f_key);
      Obs_histogram.observe v.c_steps (float_of_int r.f_steps);
      Obs_histogram.observe v.c_retransmits (float_of_int r.f_retransmits);
      Obs_histogram.observe v.c_peak (float_of_int r.f_buffer_peak);
      c :=
        { v with
          c_runs = v.c_runs + 1;
          c_decided = (v.c_decided + if r.f_decided then 1 else 0);
          c_safety = v.c_safety + r.f_safety;
          c_liveness = v.c_liveness + r.f_liveness };
      (match !worst_retx with
      | Some (_, best) when best >= r.f_retransmits -> ()
      | _ -> worst_retx := Some (r.f_key, r.f_retransmits));
      (match !worst_peak with
      | Some (_, best) when best >= r.f_buffer_peak -> ()
      | _ -> worst_peak := Some (r.f_key, r.f_buffer_peak));
      List.iter
        (fun (labels, name, v) ->
          let k = (label_value labels "layer", name) in
          Hashtbl.replace rollups k
            (v + Option.value (Hashtbl.find_opt rollups k) ~default:0))
        r.f_counters;
      let d = r.f_trace.Obs_trace.records_dropped in
      dropped := !dropped + d;
      if d > 0 then incr truncated_runs;
      List.iter
        (fun a ->
          Hashtbl.replace anomaly_counts a.a_kind
            (1 + Option.value (Hashtbl.find_opt anomaly_counts a.a_kind) ~default:0);
          archived := (r.f_key, a) :: !archived)
        r.f_anomalies)
    runs;
  let cells_list =
    List.rev_map (fun key -> !(Hashtbl.find cells key)) !order
  in
  let archived =
    (* safety first, then stalls, then storms/peaks; stable within a
       kind (execution order), capped *)
    List.stable_sort
      (fun (_, a) (_, b) -> compare (kind_rank a.a_kind) (kind_rank b.a_kind))
      (List.rev !archived)
    |> List.filteri (fun i _ -> i < max_archived_anomalies)
  in
  { s_id = id;
    s_config = config;
    s_runs = List.length runs;
    s_decided = List.length (List.filter (fun r -> r.f_decided) runs);
    s_safety = List.fold_left (fun a r -> a + r.f_safety) 0 runs;
    s_liveness = List.fold_left (fun a r -> a + r.f_liveness) 0 runs;
    s_gating_liveness =
      List.fold_left
        (fun a r -> if r.f_gating then a + r.f_liveness else a)
        0 runs;
    s_undecided_gating =
      List.length (List.filter (fun r -> r.f_gating && not r.f_decided) runs);
    s_cells = cells_list;
    s_rollups =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rollups []
      |> List.sort compare;
    s_dropped_events = !dropped;
    s_truncated_runs = !truncated_runs;
    s_worst =
      { w_slowest = !worst_slow;
        w_undecided = !worst_undecided;
        w_retransmits = !worst_retx;
        w_peak = !worst_peak };
    s_anomaly_counts =
      List.filter_map
        (fun k ->
          Option.map (fun c -> (k, c)) (Hashtbl.find_opt anomaly_counts k))
        all_kinds;
    s_anomalies = archived }

(* ---------- JSON ------------------------------------------------------ *)

let key_json k =
  Obs_json.Obj
    [ ("protocol", Obs_json.Str k.protocol);
      ("policy", Obs_json.Str k.policy);
      ("mix", Obs_json.Str k.mix);
      ("seed", Obs_json.Int k.seed) ]

let anomaly_json (k, a) =
  Obs_json.Obj
    [ ("kind", Obs_json.Str (kind_label a.a_kind));
      ("run", key_json k);
      ("at", Obs_json.Float a.a_at);
      ("detail", Obs_json.Str a.a_detail);
      ("window_elided", Obs_json.Int a.a_elided);
      ( "window",
        Obs_json.Arr (List.map Obs_trace.record_to_json a.a_window) ) ]

let cell_json c =
  Obs_json.Obj
    [ ("protocol", Obs_json.Str c.c_protocol);
      ("policy", Obs_json.Str c.c_policy);
      ("mix", Obs_json.Str c.c_mix);
      ("runs", Obs_json.Int c.c_runs);
      ("decided", Obs_json.Int c.c_decided);
      ("safety", Obs_json.Int c.c_safety);
      ("liveness", Obs_json.Int c.c_liveness);
      ("decide_clock", Obs_histogram.to_json c.c_decide);
      ("steps", Obs_histogram.to_json c.c_steps);
      ("retransmits", Obs_histogram.to_json c.c_retransmits);
      ("buffer_peak", Obs_histogram.to_json c.c_peak) ]

let worst_ref_json = function
  | None -> Obs_json.Null
  | Some (k, v) ->
    Obs_json.Obj [ ("run", key_json k); ("value", Obs_json.Float v) ]

(* What the regression gate compares: campaign-wide counts, anomaly
   counts, and per (protocol, policy, mix) cell the decided count plus
   decide-clock p95, mean steps and retransmits and the peak buffer.
   Safety and gating-liveness violations and undecided gating runs are
   limited to 0: the campaign's acceptance. *)
let gate (s : summary) =
  let open Report in
  let int f = float_of_int f in
  let anomalies kind =
    int (Option.value (List.assoc_opt kind s.s_anomaly_counts) ~default:0)
  in
  let stat f h = Option.value (f h) ~default:0.0 in
  [ strict Higher "decided runs" (int s.s_decided);
    must Lower "safety violations" ~limit:0.0 (int s.s_safety);
    must Lower "gating liveness violations" ~limit:0.0
      (int s.s_gating_liveness);
    threshold Lower "trace dropped_events" (int s.s_dropped_events);
    strict Lower "anomalies: stall" (anomalies Stall);
    threshold Lower "anomalies: retransmit-storm" (anomalies Retransmit_storm);
    threshold Lower "anomalies: backpressure-peak"
      (anomalies Backpressure_peak);
    must Lower "undecided gating runs" ~limit:0.0 (int s.s_undecided_gating) ]
  @ List.concat_map
      (fun c ->
        let tag = Printf.sprintf "%s/%s/%s" c.c_protocol c.c_policy c.c_mix in
        [ strict Higher (tag ^ " decided") (int c.c_decided);
          threshold Lower (tag ^ " decide_clock p95")
            (stat (fun h -> Obs_histogram.percentile h 95.0) c.c_decide);
          threshold Lower (tag ^ " steps mean")
            (stat Obs_histogram.mean c.c_steps);
          threshold Lower (tag ^ " retransmits mean")
            (stat Obs_histogram.mean c.c_retransmits);
          threshold Lower (tag ^ " buffer_peak max")
            (stat Obs_histogram.max_value c.c_peak) ])
      s.s_cells

let to_json ~wall ~obs (s : summary) : Obs_json.t =
  Report.make Report.Flight ~experiment:s.s_id ~wall ~runs:s.s_runs ~obs
    ~gate:(gate s)
    [ ("config", s.s_config);
      ("violations", Obs_json.Obj [ ("liveness", Obs_json.Int s.s_liveness) ]);
      ("cells", Obs_json.Arr (List.map cell_json s.s_cells));
      ( "rollups",
        Obs_json.Arr
          (List.map
             (fun ((layer, name), total) ->
               Obs_json.Obj
                 [ ("layer", Obs_json.Str layer);
                   ("counter", Obs_json.Str name);
                   ("total", Obs_json.Int total) ])
             s.s_rollups) );
      ( "trace",
        Obs_json.Obj
          [ ("dropped_events", Obs_json.Int s.s_dropped_events);
            ("truncated_runs", Obs_json.Int s.s_truncated_runs) ] );
      ( "worst",
        Obs_json.Obj
          [ ("slowest", worst_ref_json s.s_worst.w_slowest);
            ( "undecided",
              match s.s_worst.w_undecided with
              | None -> Obs_json.Null
              | Some k -> key_json k );
            ( "retransmits",
              worst_ref_json
                (Option.map
                   (fun (k, v) -> (k, float_of_int v))
                   s.s_worst.w_retransmits) );
            ( "buffer_peak",
              worst_ref_json
                (Option.map
                   (fun (k, v) -> (k, float_of_int v))
                   s.s_worst.w_peak) ) ] );
      ( "anomalies",
        Obs_json.Obj
          [ ( "counts",
              Obs_json.Obj
                (List.map
                   (fun (k, c) -> (kind_label k, Obs_json.Int c))
                   s.s_anomaly_counts) );
            ("records", Obs_json.Arr (List.map anomaly_json s.s_anomalies)) ]
      ) ]
