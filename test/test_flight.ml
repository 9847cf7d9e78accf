(* Flight recorder: hot-tier windows over the trace ring, durable-tier
   campaign summaries (byte-stable, validated), the compare engine's
   regression verdicts, and replay of the archived worst-case schedules
   found by the adversarial search. *)

let silent_mix = { Campaign.m_name = "silent"; m_kind = Campaign.Silent }

let small_config () =
  Campaign.default_config ~seeds:2
    ~protocols:[ Campaign.P_abba ]
    ~mixes:[ silent_mix ] ()

(* Run a small campaign with a flight recorder attached; returns the
   summary (under the given id) and the raw per-run flights. *)
let record_small ~id () =
  let cfg = small_config () in
  let env = Campaign.prepare cfg in
  let flight = Flight.create ~obs:env.Sweep.obs () in
  let rep = Campaign.run_prepared ~flight env cfg in
  let runs = Flight.runs flight in
  (Flight.summarize ~id ~config:(Campaign.config_json cfg) runs, runs, rep)

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
            max_window_events = 3 }
        in
        let rec_ = Flight.create ~policy ~obs () in
        let clock = ref 0.0 in
        Flight.run_begin rec_ ~now:(fun () -> !clock);
        for k = 0 to 9 do
          clock := float_of_int k;
          Obs.point obs ~layer:"test" (Printf.sprintf "e%d" k)
        done;
        Flight.note_anomaly rec_ ~at:5.0 ~detail:"synthetic stall"
          Flight.Stall;
        let key =
          { Flight.protocol = "abba"; policy = "none"; mix = "silent";
            seed = 1 }
        in
        Flight.run_end rec_ ~key ~decided:false ~gating:true
          ~decide_clock:None ~steps:123 ~safety:0 ~liveness:1 ~buffer_peak:0;
        match Flight.runs rec_ with
        | [ r ] ->
          Alcotest.(check bool) "not decided" false r.Flight.f_decided;
          (match r.Flight.f_anomalies with
          | [ a ] ->
            Alcotest.(check string) "kind" "stall"
              (Flight.kind_label a.Flight.a_kind);
            Alcotest.(check int) "window capped" 3
              (List.length a.Flight.a_window);
            Alcotest.(check int) "elided counted" 2 a.Flight.a_elided
          | l -> Alcotest.failf "expected one anomaly, got %d" (List.length l))
        | l -> Alcotest.failf "expected one run, got %d" (List.length l)) ]

(* ---------------- durable tier: determinism and validation ------------ *)

let durable_tests =
  [ Alcotest.test_case
      "same campaign twice gives byte-identical FLIGHT content" `Quick
      (fun () ->
        let s1, _, rep1 = record_small ~id:"det" () in
        let s2, _, rep2 = record_small ~id:"det" () in
        Alcotest.(check bool) "campaign ok" true (Campaign.ok rep1);
        Alcotest.(check bool) "campaign ok again" true (Campaign.ok rep2);
        Alcotest.(check string) "canonical bytes"
          (Obs_json.to_canonical_string (Flight.to_json s1))
          (Obs_json.to_canonical_string (Flight.to_json s2)));
    Alcotest.test_case "summary validates and aggregates per cell" `Quick
      (fun () ->
        let s, runs, _ = record_small ~id:"agg" () in
        (match Flight.validate_json (Flight.to_json s) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "validate: %s" e);
        Alcotest.(check int) "run count" (List.length runs) s.Flight.s_runs;
        (* 3 default policies x 1 protocol x 1 mix *)
        Alcotest.(check int) "cells" 3 (List.length s.Flight.s_cells);
        List.iter
          (fun (c : Flight.cell) ->
            Alcotest.(check int)
              (Printf.sprintf "cell %s runs" c.Flight.c_policy)
              2 c.Flight.c_runs;
            Alcotest.(check int)
              (Printf.sprintf "cell %s decide histogram" c.Flight.c_policy)
              c.Flight.c_decided
              (Obs_histogram.count c.Flight.c_decide))
          s.Flight.s_cells;
        (* per-run counter deltas roll up to layered totals *)
        Alcotest.(check bool) "rollups present" true
          (s.Flight.s_rollups <> []));
    Alcotest.test_case "validator rejects wrong shapes" `Quick (fun () ->
        let check_bad doc =
          Alcotest.(check bool) "rejected" true
            (Result.is_error (Flight.validate_json doc))
        in
        check_bad (Obs_json.Obj []);
        check_bad (Obs_json.Obj [ ("schema", Obs_json.Str "sintra-bench/1") ]);
        check_bad
          (Obs_json.Obj
             [ ("schema", Obs_json.Str "sintra-flight/1");
               ("experiment", Obs_json.Str "x");
               ("runs", Obs_json.Int (-1)) ])) ]

(* ---------------- compare engine -------------------------------------- *)

let compare_tests =
  [ Alcotest.test_case "comparing a run against itself is all-neutral"
      `Quick (fun () ->
        let s, _, _ = record_small ~id:"self" () in
        let doc = Flight.to_json s in
        match Compare.compare_docs ~baseline:doc ~candidate:doc () with
        | Error e -> Alcotest.failf "compare: %s" e
        | Ok rep ->
          Alcotest.(check bool) "ok" true (Compare.ok rep);
          Alcotest.(check int) "no regressions" 0 rep.Compare.regressed;
          Alcotest.(check int) "no improvements" 0 rep.Compare.improved;
          Alcotest.(check bool) "rows extracted" true
            (List.length rep.Compare.rows > 10));
    Alcotest.test_case "degraded candidate regresses strict metrics" `Quick
      (fun () ->
        let s, runs, _ = record_small ~id:"base" () in
        let cfg = small_config () in
        (* sabotage the candidate: one undecided run with a safety trip *)
        let worse =
          match runs with
          | r :: rest ->
            { r with
              Flight.f_decided = false;
              f_decide_clock = None;
              f_safety = r.Flight.f_safety + 1 }
            :: rest
          | [] -> Alcotest.fail "no runs"
        in
        let s' =
          Flight.summarize ~id:"base" ~config:(Campaign.config_json cfg) worse
        in
        match
          Compare.compare_docs ~baseline:(Flight.to_json s)
            ~candidate:(Flight.to_json s') ()
        with
        | Error e -> Alcotest.failf "compare: %s" e
        | Ok rep ->
          Alcotest.(check bool) "gate trips" false (Compare.ok rep);
          let regressed_metrics =
            List.filter_map
              (fun (r : Compare.row) ->
                if r.Compare.verdict = Compare.Regressed then
                  Some r.Compare.metric
                else None)
              rep.Compare.rows
          in
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (needle ^ " regressed") true
                (List.exists
                   (fun m ->
                     (* substring match *)
                     let ln = String.length needle and lm = String.length m in
                     let rec scan i =
                       i + ln <= lm && (String.sub m i ln = needle || scan (i + 1))
                     in
                     scan 0)
                   regressed_metrics))
            [ "safety"; "decided" ]);
    Alcotest.test_case "schema mismatch is an error, not a regression"
      `Quick (fun () ->
        let s, _, rep = record_small ~id:"mix" () in
        let faults_doc = Campaign.to_json ~id:"mix" ~wall:0.1 rep in
        match
          Compare.compare_docs ~baseline:(Flight.to_json s)
            ~candidate:faults_doc ()
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a structural error") ]

(* ---------------- fixture replay --------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_tests =
  [ Alcotest.test_case
      "archived worst-case schedules replay with zero safety violations"
      `Slow (fun () ->
        let dir = "fixtures" in
        let names =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f ->
                 String.length f > 6 && String.sub f 0 6 = "worst_")
          |> List.sort compare
        in
        Alcotest.(check bool)
          (Printf.sprintf "at least 3 fixtures (found %d)" (List.length names))
          true
          (List.length names >= 3);
        List.iter
          (fun name ->
            let path = Filename.concat dir name in
            match Obs_json.of_string (read_file path) with
            | Error e -> Alcotest.failf "%s: parse: %s" name e
            | Ok doc ->
              (match Schedule_search.replay doc with
              | Error e -> Alcotest.failf "%s: replay: %s" name e
              | Ok rep ->
                Alcotest.(check int)
                  (name ^ ": zero safety violations")
                  0
                  (Campaign.safety_count rep)))
          names);
    Alcotest.test_case "genome JSON round-trips" `Quick (fun () ->
        let g = Schedule_search.seed_genome in
        match Schedule_search.genome_of_json (Schedule_search.genome_json g)
        with
        | Some g' -> Alcotest.(check bool) "equal" true (g = g')
        | None -> Alcotest.fail "round-trip failed") ]

let suite =
  ( "flight",
    hot_tier_tests @ durable_tests @ compare_tests @ fixture_tests )
