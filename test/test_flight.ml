(* Flight recorder: hot-tier windows over the trace ring, the recorder's
   share of every campaign report (byte-stable, validated), the compare
   engine's regression verdicts over the faults report's per-cell rows,
   and replay of the archived schedules: the worst ones the adversarial
   search found, and svc and epoch timelines. *)

(* ABBA's silent cells over two seeds. *)
let small_campaign () =
  Support.only
    (fun (protocol, _, (mix : Campaign.mix)) ->
      protocol = Campaign.P_abba && mix.m_kind = Campaign.Silent)
    (Campaign.campaign ~link:false (Support.core ~seeds:2 2))

(* A campaign's report at a fixed wall time. *)
let doc_of c = Sweep.to_json ~id:"t" ~wall:0.0 (Sweep.sweep c)

let gate_rows doc =
  match Report.header doc with
  | Ok h -> h.Report.gate
  | Error e -> Alcotest.failf "header: %s" e

let member doc path conv =
  match Report.field doc path conv with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s" e

let regressed_metrics ~baseline ~candidate =
  match Compare.compare_docs ~baseline ~candidate with
  | Error e -> Alcotest.failf "compare: %s" e
  | Ok rep ->
    List.filter_map
      (fun (r : Compare.row) ->
        if r.Compare.verdict = Compare.Regressed then Some r.Compare.metric
        else None)
      rep.Compare.rows

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---------------- hot tier: ring accounting and windows --------------- *)

let hot_tier_tests =
  [ Alcotest.test_case "ring overwrites are counted, not silent" `Quick
      (fun () ->
        let clock = ref 0.0 in
        let tr = Obs_trace.create ~capacity:4 ~now:(fun () -> !clock) () in
        for k = 0 to 9 do
          clock := float_of_int k;
          Obs_trace.point tr ~layer:"test" (Printf.sprintf "p%d" k)
        done;
        let st = Obs_trace.stats tr in
        Alcotest.(check int) "dropped" 6 st.Obs_trace.records_dropped;
        Alcotest.(check bool) "truncated" true (Obs_trace.truncated tr);
        Alcotest.(check int) "kept" 4 (List.length (Obs_trace.records tr)));
    Alcotest.test_case "window keeps the closest events and counts elisions"
      `Quick (fun () ->
        let clock = ref 0.0 in
        let tr = Obs_trace.create ~capacity:64 ~now:(fun () -> !clock) () in
        for k = 0 to 9 do
          clock := float_of_int k;
          Obs_trace.point tr ~layer:"test" (Printf.sprintf "p%d" k)
        done;
        (* around 5.0 +- 2.0 covers t = 3..7: five records *)
        let all, elided0 =
          Obs_trace.window tr ~around:5.0 ~span:2.0 ~max_events:10
        in
        Alcotest.(check int) "in-window" 5 (List.length all);
        Alcotest.(check int) "nothing elided" 0 elided0;
        let kept, elided =
          Obs_trace.window tr ~around:5.0 ~span:2.0 ~max_events:2
        in
        Alcotest.(check int) "capped" 2 (List.length kept);
        Alcotest.(check int) "elided" 3 elided;
        (* earlier records are elided first; survivors stay oldest-first *)
        Alcotest.(check (list string)) "closest survive" [ "p6"; "p7" ]
          (List.map (fun (r : Obs_trace.record) -> r.Obs_trace.name) kept));
    Alcotest.test_case "recorder cuts bounded windows around anomalies"
      `Quick (fun () ->
        let obs = Obs.create () in
        let policy =
          { Flight.default_policy with
            Flight.trace_capacity = 64;
            window_span = 2.0;
            max_window_events = 3;
            backpressure_peak = 10 }
        in
        let rec_ = Flight.create ~policy ~obs () in
        let clock = ref 0.0 in
        Flight.run_begin rec_;
        Flight.bind_clock rec_ (fun () -> !clock);
        for k = 0 to 9 do
          clock := float_of_int k;
          Obs.point obs ~layer:"test" (Printf.sprintf "e%d" k)
        done;
        Flight.note_anomaly rec_ ~at:5.0 ~detail:"synthetic stall"
          Flight.Stall;
        (* below the policy's peak, then at it *)
        Flight.note_buffer_peak rec_ 9;
        Flight.note_buffer_peak rec_ 10;
        Flight.run_end rec_ ~key:{ Flight.cell = "abba/none/silent"; seed = 1 };
        match Flight.runs rec_ with
        | [ r ] ->
          Alcotest.(check string) "key" "abba/none/silent"
            r.Flight.key.Flight.cell;
          (match r.Flight.anomalies with
          | [ a; peak ] ->
            Alcotest.(check string) "kind" "stall"
              (Flight.kind_label a.Flight.a_kind);
            Alcotest.(check int) "window capped" 3
              (List.length a.Flight.a_window);
            Alcotest.(check int) "elided counted" 2 a.Flight.a_elided;
            Alcotest.(check string) "peak noted at run end"
              "backpressure-peak"
              (Flight.kind_label peak.Flight.a_kind)
          | l -> Alcotest.failf "expected two anomalies, got %d" (List.length l));
          Alcotest.(check (list (pair string (float 0.0))))
            "recorder rows"
            [ ("trace dropped_events", 0.0); ("anomalies: stall", 1.0);
              ("anomalies: retransmit-storm", 0.0);
              ("anomalies: backpressure-peak", 1.0);
              ("trace truncated runs", 0.0); ("anomalies: safety-trip", 0.0);
              ("anomalies: state-transfer", 0.0) ]
            (List.map
               (fun (g : Report.gate) -> (g.metric, g.value))
               (Flight.summarize rec_))
        | l -> Alcotest.failf "expected one run, got %d" (List.length l)) ]

(* ---------------- every report: determinism and validation ------------ *)

let durable_tests =
  [ Alcotest.test_case
      "same campaign twice gives byte-identical reports" `Quick
      (fun () ->
        let d1 = doc_of (small_campaign ()) and d2 = doc_of (small_campaign ()) in
        Alcotest.(check bool) "report ok" true
          (Result.is_ok (Campaign_table.check_doc d1));
        Alcotest.(check string) "canonical bytes"
          (Obs_json.to_canonical_string d1)
          (Obs_json.to_canonical_string d2));
    Alcotest.test_case "summary validates and aggregates per cell" `Quick
      (fun () ->
        let c = small_campaign () in
        let rep = Sweep.sweep c in
        let doc = Sweep.to_json ~id:"t" ~wall:0.0 rep in
        (match Campaign_table.check_doc doc with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "validate: %s" e);
        let gate = gate_rows doc in
        let row m =
          match List.find_opt (fun (g : Report.gate) -> g.metric = m) gate with
          | Some g -> g.Report.value
          | None -> Alcotest.failf "no gate row %S" m
        in
        (* 3 default policies x 1 protocol x 1 mix, 2 runs each *)
        List.iter
          (fun cell ->
            let label = c.Sweep.label cell in
            let decided =
              List.length
                (List.filter
                   (fun (cell', _, r) ->
                     c.Sweep.label cell' = label && r.Campaign.r_decided)
                   rep.Sweep.results)
            in
            Alcotest.(check (float 0.0)) (label ^ " decided")
              (float_of_int decided) (row (label ^ " decided"));
            List.iter
              (fun stat -> ignore (row (label ^ " " ^ stat)))
              [ "decide_clock p95"; "steps mean"; "retransmits mean";
                "buffer_peak max" ])
          c.Sweep.cells;
        Alcotest.(check int) "cells" 3 (List.length c.Sweep.cells);
        ignore (row "trace dropped_events");
        ignore (row "anomalies: stall");
        ignore (row "trace truncated runs");
        ignore (member doc [ "anomalies"; "records" ] Obs_json.to_list);
        (* the slowest decided run's row names its cell *)
        let clock r =
          Option.bind (Obs_json.member "decide_clock" r) Obs_json.to_float
        in
        let slowest =
          List.fold_left
            (fun best r ->
              match (clock r, Option.bind best clock) with
              | Some v, Some b when b >= v -> best
              | Some _, _ -> Some r
              | None, _ -> best)
            None
            (member doc [ "per_run" ] Obs_json.to_list)
        in
        match slowest with
        | None -> Alcotest.fail "no decided run in per_run"
        | Some r ->
          Alcotest.(check bool) "slowest run's cell" true
            (List.mem
               (member r [ "cell" ] Obs_json.to_str)
               (List.map c.Sweep.label c.Sweep.cells)));
    Alcotest.test_case "validator rejects wrong shapes" `Quick (fun () ->
        let check_bad doc =
          Alcotest.(check bool) "rejected" true
            (Result.is_error (Campaign_table.check_doc doc))
        in
        check_bad (Obs_json.Obj []);
        check_bad
          (Obs_json.Obj
             [ ("schema", Obs_json.Str Report.schema);
               ("kind", Obs_json.Str "bench") ]);
        check_bad
          (Obs_json.Obj
             [ ("schema", Obs_json.Str Report.schema);
               ("kind", Obs_json.Str "faults");
               ("experiment", Obs_json.Str "x");
               ("runs", Obs_json.Int (-1)) ]);
        (* the merged flight report is no kind of its own *)
        let doc = doc_of (small_campaign ()) in
        check_bad
          (match doc with
          | Obs_json.Obj kvs ->
            Obs_json.Obj (("kind", Obs_json.Str "flight") :: List.remove_assoc "kind" kvs)
          | d -> d));
    Alcotest.test_case
      "an svc run short of steps reports a stall with its trace window"
      `Quick (fun () ->
        let c =
          Support.only
            (( = ) (Svc.Directory_svc, Svc.Benign))
            (Svc.campaign ~clients:2 ~window:2 ~keyspace:4
               (Support.core ~max_steps:300 ~seeds:1 6))
        in
        let doc = doc_of c in
        (match member doc [ "per_run" ] Obs_json.to_list with
        | [ r ] ->
          Alcotest.(check string) "the stalled run's cell" "directory/benign"
            (member r [ "cell" ] Obs_json.to_str);
          let vs =
            List.map
              (fun v ->
                ( member v [ "oracle" ] Obs_json.to_str,
                  member v [ "severity" ] Obs_json.to_str ))
              (member r [ "violations" ] Obs_json.to_list)
          in
          Alcotest.(check (list (pair string string)))
            "the stalled run's one liveness violation is the stall"
            [ ("progress", "liveness") ]
            (List.filter (fun (_, sev) -> sev = "liveness") vs);
          Alcotest.(check int) "its liveness count" 1
            (member r [ "liveness" ] Obs_json.to_int)
        | l -> Alcotest.failf "expected one run, got %d" (List.length l));
        Alcotest.(check bool) "stall row" true
          (List.exists
             (fun (g : Report.gate) ->
               g.metric = "anomalies: stall" && g.value = 1.0)
             (gate_rows doc));
        match member doc [ "anomalies"; "records" ] Obs_json.to_list with
        | [ r ] ->
          Alcotest.(check string) "kind" "stall"
            (member r [ "kind" ] Obs_json.to_str);
          Alcotest.(check string) "run" "directory/benign"
            (member r [ "run"; "cell" ] Obs_json.to_str);
          Alcotest.(check bool) "detail names the stall" true
            (contains (member r [ "detail" ] Obs_json.to_str) "ran out of steps");
          Alcotest.(check bool) "window not empty" true
            (member r [ "window" ] Obs_json.to_list <> [])
        | l -> Alcotest.failf "expected one record, got %d" (List.length l));
    Alcotest.test_case
      "faults --quick --seeds 3 states the rows the FLIGHT report stated"
      `Quick (fun () ->
        let row =
          match Campaign_table.find "faults" with
          | Some row -> row
          | None -> Alcotest.fail "no faults row"
        in
        let (Campaign_table.Packed c) =
          row.Campaign_table.campaign
            (Support.core ~seeds:3 row.Campaign_table.quick.Campaign_table.size)
        in
        let gate = gate_rows (doc_of c) in
        let expected =
          match
            Report.read_file
              (Filename.concat Support.fixtures_dir "flight_quick_rows.json")
          with
          | Ok doc -> member doc [ "rows" ] Obs_json.to_list
          | Error e -> Alcotest.failf "fixture: %s" e
        in
        Alcotest.(check bool) "fixture rows" true (List.length expected > 90);
        List.iter
          (fun r ->
            let m = member r [ "metric" ] Obs_json.to_str in
            match List.find_opt (fun (g : Report.gate) -> g.metric = m) gate with
            | None -> Alcotest.failf "no gate row %S" m
            | Some g ->
              Alcotest.(check (float 0.0)) m
                (member r [ "value" ] Obs_json.to_float)
                g.Report.value)
          expected) ]

(* ---------------- compare engine -------------------------------------- *)

(* The small campaign with its first run undecided and carrying a
   safety violation. *)
let sabotaged () =
  let c = small_campaign () in
  let first = List.hd c.Sweep.cells in
  { c with
    Sweep.run_one =
      (fun env cell ~seed tl ->
        let r = c.Sweep.run_one env cell ~seed tl in
        if c.Sweep.label cell = c.Sweep.label first
           && seed = c.Sweep.core.Sweep.seed_base
        then
          { r with
            Campaign.r_decided = false;
            r_decide_clock = None;
            r_violations =
              Sweep.unless false Oracle.Safety "sabotage" "forced"
              @ r.Campaign.r_violations }
        else r) }

let compare_tests =
  [ Alcotest.test_case "comparing a run against itself is all-neutral"
      `Quick (fun () ->
        let doc = doc_of (small_campaign ()) in
        match Compare.compare_docs ~baseline:doc ~candidate:doc with
        | Error e -> Alcotest.failf "compare: %s" e
        | Ok rep ->
          Alcotest.(check bool) "ok" true (Compare.ok rep);
          Alcotest.(check int) "no regressions" 0 rep.Compare.regressed;
          Alcotest.(check int) "no improvements" 0 rep.Compare.improved;
          Alcotest.(check bool) "rows extracted" true
            (List.length rep.Compare.rows > 10));
    Alcotest.test_case "degraded candidate regresses strict metrics" `Quick
      (fun () ->
        let regressed =
          regressed_metrics ~baseline:(doc_of (small_campaign ()))
            ~candidate:(doc_of (sabotaged ()))
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " regressed") true
              (List.exists (fun m -> contains m needle) regressed))
          [ "safety violations"; "abba/drop/silent decided" ]);
    Alcotest.test_case "schema mismatch is an error, not a regression"
      `Quick (fun () ->
        let doc = doc_of (small_campaign ()) in
        let as_recov =
          match doc with
          | Obs_json.Obj kvs ->
            Obs_json.Obj (("kind", Obs_json.Str "recov") :: List.remove_assoc "kind" kvs)
          | d -> d
        in
        match Compare.compare_docs ~baseline:doc ~candidate:as_recov with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a structural error") ]

(* ---------------- fixture replay --------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_docs () =
  let dir = Support.fixtures_dir in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"worst_" f
         || String.starts_with ~prefix:"replay_" f)
  |> List.sort compare
  |> List.map (fun name ->
         match Obs_json.of_string (read_file (Filename.concat dir name)) with
         | Ok doc -> (name, doc)
         | Error e -> Alcotest.failf "%s: parse: %s" name e)

(* Replace the member at a path of a JSON object (the last path element
   is removed when [v] is [None]). *)
let rec edit doc path v =
  match (doc, path) with
  | Obs_json.Obj fields, [ k ] ->
    Obs_json.Obj
      (List.filter (fun (k', _) -> k' <> k) fields
      @ match v with Some v -> [ (k, v) ] | None -> [])
  | Obs_json.Obj fields, k :: rest ->
    Obs_json.Obj
      (List.map
         (fun (k', x) -> if k' = k then (k', edit x rest v) else (k', x))
         fields)
  | _ -> doc

(* A fixture as the first schedule search wrote it, before timelines. *)
let v1_fixture =
  {|{"eval":{"max_steps":60000,"n":4,"payloads":2,"protocol":"abc","seed_base":1,"seeds":2,"t":1},"genome":{"delay":0.5,"drop":0.02,"duplicate":0.18317157962377134,"part_frac":0.25,"part_len":100.0,"part_start":50.0,"reorder":0.05},"link":false,"objective":"decide-time","provenance":{"decided":0,"runs":2,"safety":0,"search_seed":1},"schema":"sintra-schedule/1","score":600095.0}|}

let fixture_tests =
  [ Alcotest.test_case
      "archived worst-case schedules replay with zero safety violations"
      `Slow (fun () ->
        let docs = fixture_docs () in
        Alcotest.(check bool)
          (Printf.sprintf "at least 3 fixtures (found %d)" (List.length docs))
          true
          (List.length docs >= 3);
        List.iter
          (fun (name, doc) ->
            let recorded path conv =
              match Report.field doc path conv with
              | Ok v -> v
              | Error e -> Alcotest.failf "%s: %s" name e
            in
            match Schedule_search.replay doc with
            | Error e -> Alcotest.failf "%s: replay: %s" name e
            | Ok e ->
              Alcotest.(check (float 0.0))
                (name ^ ": recorded score")
                (recorded [ "score" ] Obs_json.to_float)
                e.Schedule_search.e_score;
              Alcotest.(check int)
                (name ^ ": recorded decided runs")
                (recorded [ "provenance"; "decided" ] Obs_json.to_int)
                e.Schedule_search.e_decided;
              Alcotest.(check int)
                (name ^ ": zero safety violations")
                0 e.Schedule_search.e_safety)
          docs);
    Alcotest.test_case "svc and epoch fixtures replay their own timeline"
      `Quick (fun () ->
        (* Each fixture moves its cell's crash and revive later in the
           stream; the cell's default timeline runs another number of
           steps, so the timeline replayed is the one that ran. *)
        let score doc =
          match Schedule_search.replay doc with
          | Ok e -> e.Schedule_search.e_score
          | Error e -> Alcotest.failf "replay: %s" e
        in
        List.iter
          (fun (file, default) ->
            let doc = List.assoc file (fixture_docs ()) in
            let moved = score doc
            and own =
              score
                (edit doc [ "timeline" ] (Some (Sweep.timeline_json default)))
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %g steps, %g under the cell's default" file
                 moved own)
              true (moved <> own))
          [ ( "replay_svc_ca_crash-rejoin.json",
              (Svc.campaign (Support.core ~seeds:1 60)).Sweep.timeline
                (Svc.Ca_svc, Svc.Crash_rejoin) );
            ( "replay_epoch_kill-and-replace_lossy.json",
              (Refresh.campaign (Support.core ~seeds:1 24)).Sweep.timeline
                (Refresh.Kill_replace, Refresh.Lossy) ) ]);
    Alcotest.test_case "malformed schedule fixtures are errors" `Quick
      (fun () ->
        let doc = List.assoc "worst_buffer-peak_0.json" (fixture_docs ()) in
        let step at act =
          Some
            (Obs_json.Arr
               [ Obs_json.Obj [ ("at", at); ("do", Obs_json.Str act) ] ])
        in
        let v1 =
          match Obs_json.of_string v1_fixture with
          | Ok v1 -> v1
          | Error e -> Alcotest.failf "v1 fixture: %s" e
        in
        List.iter
          (fun (label, bad) ->
            match Schedule_search.replay bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: accepted" label
            | exception ex ->
              Alcotest.failf "%s: raised %s" label (Printexc.to_string ex))
          [ ( "unknown action",
              edit doc [ "timeline" ] (step (Obs_json.Str "start") "flood") );
            ( "progress above 1",
              edit doc [ "timeline" ] (step (Obs_json.Float 1.5) "crash") );
            ( "progress at 0",
              edit doc [ "timeline" ] (step (Obs_json.Int 0) "crash") );
            ( "not a start-time chaos step",
              edit doc [ "timeline" ] (step (Obs_json.Float 0.5) "crash") );
            ( "missing chaos spec",
              edit doc [ "timeline" ] (step (Obs_json.Str "start") "chaos") );
            ( "drop rate above 1",
              edit doc [ "timeline" ]
                (Some
                   (Sweep.timeline_json
                      Sweep.[ { at = Start; act = Chaos (lossy 1.5) } ])) );
            ("missing eval field", edit doc [ "eval"; "max_steps" ] None);
            ( "unknown campaign",
              edit doc [ "campaign" ] (Some (Obs_json.Str "nope")) );
            ( "unknown cell",
              edit doc [ "cell" ] (Some (Obs_json.Str "abc/nope/silent")) );
            ( "buffer-peak outside the faults campaigns",
              edit doc [ "campaign" ] (Some (Obs_json.Str "svc")) );
            ("missing timeline", edit doc [ "timeline" ] None);
            ("v1 schema", v1) ]);
    Alcotest.test_case "timeline JSON round-trips" `Quick (fun () ->
        (* Every field of the encoding: per-link overrides, an open-ended
           partition, both reshare targets. *)
        let spec =
          { (Sweep.lossy 0.1) with
            Sim.links = [ ((0, 1), { Sim.no_fault with Sim.delay = 2.0 }) ];
            partitions =
              [ { Sim.from_t = 5.0; until_t = infinity;
                  cells = [ Pset.singleton 0; Pset.of_list [ 1; 2 ] ] } ] }
        in
        let every_field =
          Sweep.
            [ { at = Start; act = Chaos spec };
              { at = Progress 0.25; act = Reshare All_but_victim };
              { at = Progress 0.5; act = Reshare All } ]
        in
        (* ... and every cell's default timeline of every campaign. *)
        let timelines =
          every_field
          :: Schedule_search.seed_timeline ~n:4
          :: List.concat_map
               (fun (row : Campaign_table.campaign) ->
                 let (Campaign_table.Packed c) =
                   row.campaign (Support.core ~seeds:1 12)
                 in
                 List.map c.Sweep.timeline c.Sweep.cells)
               Campaign_table.campaigns
        in
        List.iter
          (fun tl ->
            let text = Obs_json.to_string (Sweep.timeline_json tl) in
            match
              Result.bind (Obs_json.of_string text) Sweep.timeline_of_json
            with
            | Ok tl' -> Alcotest.(check bool) text true (tl = tl')
            | Error e -> Alcotest.failf "%s: %s" text e)
          timelines) ]

let suite =
  ( "flight",
    hot_tier_tests @ durable_tests @ compare_tests @ fixture_tests )
