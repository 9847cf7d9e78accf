(* Fault-injection subsystem: chaos policies (drop / duplication /
   reorder / partition schedules), the unified drop paths, the
   diagnostic Out_of_steps payload, the Byzantine behaviour library, the
   safety/liveness oracles, and the seed-sweep campaign regression
   (50 seeds per chaos policy with a maximal corrupted set, for both
   ABBA and ABC). *)

module AS = Adversary_structure

let drop_only rate = { Sim.no_fault with Sim.drop = rate }

let with_chaos ?(policy = Sim.Fifo) ~n ~seed chaos =
  let sim = Sim.create ~policy ~n ~seed () in
  Sim.set_chaos sim (Some chaos);
  sim

(* Install counting sinks on every server slot. *)
let sinks sim n =
  let received = Array.make n [] in
  for p = 0 to n - 1 do
    Sim.set_handler sim p (fun ~src m -> received.(p) <- (src, m) :: received.(p))
  done;
  received

(* ---------------- chaos: link faults --------------------------------- *)

let chaos_tests =
  [ Alcotest.test_case "set_chaos validates rates and windows" `Quick
      (fun () ->
        let sim : unit Sim.t = Sim.create ~n:2 ~seed:1 () in
        let bad rate =
          Alcotest.check_raises "rate"
            (Invalid_argument
               (Printf.sprintf "Sim.set_chaos: drop rate %g not in [0,1]" rate))
            (fun () ->
              Sim.set_chaos sim
                (Some
                   { Sim.benign_chaos with
                     Sim.default_link = drop_only rate }))
        in
        bad 1.5;
        bad (-0.25);
        Alcotest.check_raises "empty window"
          (Invalid_argument "Sim.set_chaos: empty partition window")
          (fun () ->
            Sim.set_chaos sim
              (Some
                 { Sim.benign_chaos with
                   Sim.partitions =
                     [ { Sim.from_t = 10.0; until_t = 10.0; cells = [] } ] }));
        (* benign spec installs and clears fine *)
        Sim.set_chaos sim (Some Sim.benign_chaos);
        Sim.set_chaos sim None);
    Alcotest.test_case "per-link drop=1 loses exactly that link" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:7
            { Sim.benign_chaos with
              Sim.links = [ ((0, 1), drop_only 1.0) ] }
        in
        let received = sinks sim 2 in
        for k = 0 to 4 do
          Sim.send sim ~src:0 ~dst:1 k;
          Sim.send sim ~src:1 ~dst:0 (100 + k)
        done;
        Sim.run sim;
        let m = Sim.metrics sim in
        Alcotest.(check int) "0->1 all lost" 0 (List.length received.(1));
        Alcotest.(check int) "1->0 all delivered" 5 (List.length received.(0));
        Alcotest.(check int) "chaos drops" 5 m.Metrics.chaos_drops;
        Alcotest.(check int) "total drops" 5 m.Metrics.drops);
    Alcotest.test_case "duplicate=1 delivers every message exactly twice"
      `Quick (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:11
            { Sim.benign_chaos with
              Sim.default_link = { Sim.no_fault with Sim.duplicate = 1.0 } }
        in
        let received = sinks sim 2 in
        for k = 0 to 3 do
          Sim.send sim ~src:0 ~dst:1 k
        done;
        Sim.run sim;
        let m = Sim.metrics sim in
        Alcotest.(check int) "twice each" 8 (List.length received.(1));
        Alcotest.(check int) "chaos dups" 4 m.Metrics.chaos_dups;
        List.iter
          (fun k ->
            Alcotest.(check int)
              (Printf.sprintf "copies of %d" k)
              2
              (List.length
                 (List.filter (fun (_, m) -> m = k) received.(1))))
          [ 0; 1; 2; 3 ]);
    Alcotest.test_case "reorder defers but still delivers everything" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:13
            { Sim.benign_chaos with
              Sim.default_link = { Sim.no_fault with Sim.reorder = 0.5 } }
        in
        let received = sinks sim 2 in
        for k = 0 to 19 do
          Sim.send sim ~src:0 ~dst:1 k
        done;
        Sim.run sim;
        let m = Sim.metrics sim in
        Alcotest.(check int) "all delivered" 20 (List.length received.(1));
        Alcotest.(check bool) "some reorders happened" true
          (m.Metrics.chaos_reorders > 0);
        Alcotest.(check int) "no drops" 0 m.Metrics.drops);
    Alcotest.test_case "chaos runs are seed-deterministic" `Quick (fun () ->
        let run () =
          let sim =
            with_chaos ~policy:Sim.Random_order ~n:4 ~seed:23
              { Sim.benign_chaos with
                Sim.default_link =
                  { Sim.drop = 0.2; duplicate = 0.3; reorder = 0.3; delay = 0.0 } }
          in
          Sim.enable_trace sim ~summarize:string_of_int;
          let received = sinks sim 4 in
          for src = 0 to 3 do
            for k = 0 to 9 do
              Sim.broadcast sim ~src ((10 * src) + k)
            done
          done;
          Sim.run sim;
          let m = Sim.metrics sim in
          ( Array.map (fun l -> List.rev l) received,
            Sim.clock sim,
            ( m.Metrics.deliveries,
              m.Metrics.chaos_drops,
              m.Metrics.chaos_dups,
              m.Metrics.chaos_reorders ),
            List.length (Sim.trace sim) )
        in
        let r1 = run () and r2 = run () in
        Alcotest.(check bool) "identical outcomes" true (r1 = r2)) ]

(* ---------------- chaos: partitions ---------------------------------- *)

let partition_tests =
  [ Alcotest.test_case "cross-cell traffic waits for the heal" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:4 ~seed:3
            { Sim.benign_chaos with
              Sim.partitions =
                [ { Sim.from_t = 0.0;
                    until_t = 500.0;
                    cells = [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 2; 3 ] ]
                  } ] }
        in
        Sim.enable_trace sim ~summarize:string_of_int;
        let received = sinks sim 4 in
        Sim.send sim ~src:0 ~dst:1 1;
        Sim.send sim ~src:0 ~dst:2 2;
        Sim.send sim ~src:3 ~dst:2 3;
        Sim.run sim;
        Alcotest.(check int) "everything delivered" 3
          (Array.fold_left (fun a l -> a + List.length l) 0 received);
        List.iter
          (fun ev ->
            match ev with
            | Sim.Delivered { at; src; dst; _ } ->
              let cell p = if p < 2 then 0 else 1 in
              if cell src <> cell dst then
                Alcotest.(check bool)
                  (Printf.sprintf "%d->%d delivered after heal" src dst)
                  true (at >= 500.0)
              else
                Alcotest.(check bool)
                  (Printf.sprintf "%d->%d delivered during window" src dst)
                  true (at < 500.0)
            | _ -> ())
          (Sim.trace sim));
    Alcotest.test_case "expired and pending windows do not block" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:5
            { Sim.benign_chaos with
              Sim.partitions =
                [ { Sim.from_t = 1.0e6;
                    until_t = 2.0e6;
                    cells = [ Pset.singleton 0; Pset.singleton 1 ] } ] }
        in
        let received = sinks sim 2 in
        Sim.send sim ~src:0 ~dst:1 42;
        Sim.run sim;
        Alcotest.(check int) "delivered before the window opens" 1
          (List.length received.(1));
        Alcotest.(check bool) "well before" true (Sim.clock sim < 1.0e6));
    (* Regression: an open-ended window (until_t = infinity) used to
       crash the all-blocked scheduler fallback with Invalid_argument
       "Sim.remove_nth" — every env_release was infinite, so no
       "earliest-healing" envelope existed.  The fallback is now a clock
       advance: with no timers the network simply quiesces. *)
    Alcotest.test_case "open-ended window with no timers quiesces" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:29
            { Sim.benign_chaos with
              Sim.partitions =
                [ { Sim.from_t = 0.0;
                    until_t = infinity;
                    cells = [ Pset.singleton 0; Pset.singleton 1 ] } ] }
        in
        let received = sinks sim 2 in
        Sim.send sim ~src:0 ~dst:1 1;
        Sim.send sim ~src:1 ~dst:0 2;
        Sim.run sim;
        Alcotest.(check int) "nothing delivered" 0
          (Array.fold_left (fun a l -> a + List.length l) 0 received);
        Alcotest.(check int) "envelopes still pending" 2
          (Sim.pending_count sim));
    Alcotest.test_case "timers keep firing behind an open-ended cut" `Quick
      (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:31
            { Sim.benign_chaos with
              Sim.partitions =
                [ { Sim.from_t = 0.0;
                    until_t = infinity;
                    cells = [ Pset.singleton 0; Pset.singleton 1 ] } ] }
        in
        let received = sinks sim 2 in
        let fired = ref [] in
        let rec rearm k =
          if k < 5 then
            Sim.set_timer sim 0 ~delay:50.0 (fun () ->
                fired := Sim.clock sim :: !fired;
                (* a blocked retransmission attempt every period *)
                Sim.send sim ~src:0 ~dst:1 k;
                rearm (k + 1))
        in
        rearm 0;
        Sim.send sim ~src:0 ~dst:1 99;
        Sim.run sim;
        Alcotest.(check int) "all five timers fired" 5 (List.length !fired);
        (* each fired at its own deadline, not at some heal time *)
        List.iteri
          (fun i at ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "deadline %d" i)
              (float_of_int (5 - i) *. 50.0)
              at)
          !fired;
        Alcotest.(check int) "blocked traffic never delivered" 0
          (Array.fold_left (fun a l -> a + List.length l) 0 received));
    Alcotest.test_case "timer before a finite heal fires at its deadline"
      `Quick (fun () ->
        let sim =
          with_chaos ~n:2 ~seed:37
            { Sim.benign_chaos with
              Sim.partitions =
                [ { Sim.from_t = 0.0;
                    until_t = 10_000.0;
                    cells = [ Pset.singleton 0; Pset.singleton 1 ] } ] }
        in
        let received = sinks sim 2 in
        let timer_at = ref nan in
        Sim.set_timer sim 0 ~delay:200.0 (fun () -> timer_at := Sim.clock sim);
        Sim.send sim ~src:0 ~dst:1 7;
        Sim.run sim;
        (* the old fallback jumped straight to the heal and only then
           fired the timer; now the timer fires first, at 200 *)
        Alcotest.(check (float 1e-9)) "timer at its deadline" 200.0 !timer_at;
        Alcotest.(check int) "message delivered after the heal" 1
          (List.length received.(1));
        Alcotest.(check bool) "clock past the heal" true
          (Sim.clock sim >= 10_000.0)) ]

(* ---------------- drop-path unification & diagnostics ---------------- *)

let drop_path_tests =
  [ Alcotest.test_case "all three drop reasons reach trace and metrics"
      `Quick (fun () ->
        let sim =
          with_chaos ~n:3 ~seed:17
            { Sim.benign_chaos with
              Sim.links = [ ((0, 1), drop_only 1.0) ] }
        in
        Sim.enable_trace sim ~summarize:string_of_int;
        (* party 2 gets no handler; party 1 handled but crashed later *)
        Sim.set_handler sim 0 (fun ~src:_ _ -> ());
        Sim.set_handler sim 1 (fun ~src:_ _ -> ());
        Sim.send sim ~src:0 ~dst:1 1 (* chaos *);
        Sim.send sim ~src:0 ~dst:2 2 (* no handler *);
        Sim.crash sim 1;
        Sim.send sim ~src:2 ~dst:1 3 (* crashed *);
        Sim.run sim;
        let reasons =
          List.filter_map
            (function
              | Sim.Dropped { reason; _ } -> Some (Sim.drop_reason_label reason)
              | _ -> None)
            (Sim.trace sim)
          |> List.sort compare
        in
        Alcotest.(check (list string)) "reasons"
          [ "chaos"; "crashed"; "no-handler" ]
          reasons;
        let m = Sim.metrics sim in
        Alcotest.(check int) "drops" 3 m.Metrics.drops;
        Alcotest.(check int) "chaos share" 1 m.Metrics.chaos_drops);
    Alcotest.test_case "Out_of_steps carries stall diagnostics" `Quick
      (fun () ->
        let sim : int Sim.t = Sim.create ~n:2 ~seed:19 () in
        (* ping-pong forever so the step bound must trip *)
        Sim.set_handler sim 0 (fun ~src:_ m -> Sim.send sim ~src:0 ~dst:1 m);
        Sim.set_handler sim 1 (fun ~src:_ m -> Sim.send sim ~src:1 ~dst:0 m);
        Sim.set_timer sim 0 ~delay:1.0e12 (fun () -> ());
        Sim.send sim ~src:0 ~dst:1 0;
        (try
           Sim.run ~max_steps:50 sim;
           Alcotest.fail "expected Out_of_steps"
         with Sim.Out_of_steps { at_clock; pending; timers; detail } ->
           Alcotest.(check bool) "clock advanced" true (at_clock > 0.0);
           Alcotest.(check int) "one message in flight" 1 pending;
           Alcotest.(check int) "unfired timer counted" 1 timers;
           Alcotest.(check string) "no probe, empty detail" "" detail));
    Alcotest.test_case "Out_of_steps detail comes from the stall probe"
      `Quick (fun () ->
        let sim : int Sim.t = Sim.create ~n:2 ~seed:23 () in
        Sim.set_handler sim 0 (fun ~src:_ m -> Sim.send sim ~src:0 ~dst:1 m);
        Sim.set_handler sim 1 (fun ~src:_ m -> Sim.send sim ~src:1 ~dst:0 m);
        Sim.set_stall_probe sim (fun () ->
            Printf.sprintf "probe: %d pending" (Sim.pending_count sim));
        Sim.send sim ~src:0 ~dst:1 0;
        try
          Sim.run ~max_steps:25 sim;
          Alcotest.fail "expected Out_of_steps"
        with Sim.Out_of_steps { detail; _ } ->
          Alcotest.(check string) "probe rendered" "probe: 1 pending" detail) ]

(* ---------------- oracles -------------------------------------------- *)

let oracle_tests =
  let honest = Pset.of_list [ 0; 1; 2 ] in
  [ Alcotest.test_case "agreement flags honest divergence only" `Quick
      (fun () ->
        let ok =
          Oracle.agreement ~honest ~show:string_of_int
            [| Some 1; Some 1; None; Some 9 |]
        in
        Alcotest.(check int) "corrupted slot ignored" 0 (List.length ok);
        let bad =
          Oracle.agreement ~honest ~show:string_of_int
            [| Some 1; Some 2; Some 1; None |]
        in
        Alcotest.(check int) "one divergence" 1 (Oracle.count_safety bad);
        match bad with
        | [ v ] ->
          Alcotest.(check bool) "safety" true (v.Oracle.severity = Oracle.Safety);
          Alcotest.(check (option int)) "offender" (Some 1) v.Oracle.party
        | _ -> Alcotest.fail "expected exactly one violation");
    Alcotest.test_case "abba validity binds unanimous honest proposals"
      `Quick (fun () ->
        let proposals = [| true; true; true; false |] in
        Alcotest.(check int) "clean" 0
          (List.length
             (Oracle.abba_validity ~honest ~proposals
                [| Some true; Some true; Some true; Some false |]));
        Alcotest.(check int) "invalid decision" 1
          (List.length
             (Oracle.abba_validity ~honest ~proposals
                [| Some true; Some false; Some true; None |]));
        (* mixed honest proposals: nothing to enforce *)
        Alcotest.(check int) "mixed proposals" 0
          (List.length
             (Oracle.abba_validity ~honest ~proposals:[| true; false; true; true |]
                [| Some false; Some false; Some false; None |])));
    Alcotest.test_case "total order: prefixes fine, divergence flagged"
      `Quick (fun () ->
        Alcotest.(check int) "prefix ok" 0
          (List.length
             (Oracle.total_order ~honest
                [| [ "a"; "b" ]; [ "a" ]; [ "a"; "b"; "c" ]; [ "z" ] |]));
        let bad =
          Oracle.total_order ~honest
            [| [ "a"; "b" ]; [ "b"; "a" ]; [ "a"; "b" ]; [] |]
        in
        Alcotest.(check bool) "divergence is safety" true
          (Oracle.count_safety bad > 0);
        let dup = Oracle.total_order ~honest [| [ "a"; "a" ]; []; []; [] |] in
        Alcotest.(check int) "duplicate delivery" 1 (Oracle.count_safety dup));
    Alcotest.test_case "liveness class is separate from safety" `Quick
      (fun () ->
        let vs =
          Oracle.all_decided ~honest [| Some 1; None; Some 1; None |]
          @ Oracle.totality ~honest ~expected:2 [| 2; 1; 2; 0 |]
        in
        Alcotest.(check int) "liveness" 2 (Oracle.count_liveness vs);
        Alcotest.(check int) "no safety" 0 (Oracle.count_safety vs)) ]

(* ---------------- byzantine behaviours ------------------------------- *)

let byzantine_tests =
  let structure = AS.threshold ~n:4 ~t:1 in
  let keyring = Keyring.deal ~rsa_bits:192 ~seed:42 structure in
  let abba_run ~seed behavior =
    let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed () in
    let decisions = Array.make 4 None in
    let wrap =
      Byzantine.wrap_of ~sim ~keyring ~seed ~set:(Pset.singleton 3) behavior
    in
    let nodes =
      Stack.deploy_abba ~wrap ~sim ~keyring ~tag:"byz-test"
        ~on_decide:(fun p b -> decisions.(p) <- Some b)
        ()
    in
    for p = 0 to 2 do
      Abba.propose nodes.(p) true
    done;
    Sim.run sim
      ~until:(fun () ->
        Array.for_all Option.is_some (Array.sub decisions 0 3));
    decisions
  in
  [ Alcotest.test_case "silent party cannot block or corrupt ABBA" `Quick
      (fun () ->
        let d = abba_run ~seed:1 Byzantine.silent in
        for p = 0 to 2 do
          Alcotest.(check (option bool))
            (Printf.sprintf "party %d" p)
            (Some true) d.(p)
        done);
    Alcotest.test_case "crash_at fires and the rest still decide" `Quick
      (fun () ->
        let d = abba_run ~seed:2 (Byzantine.crash_at 120.0) in
        Alcotest.(check int) "honest all decide true" 3
          (Array.length
             (Array.sub d 0 3 |> Array.to_seq
             |> Seq.filter (( = ) (Some true))
             |> Array.of_seq)));
    Alcotest.test_case
      "equivocating supports + forged coin shares are survived" `Quick
      (fun () ->
        let d =
          abba_run ~seed:3 (Byzantine.For_abba.byzantine ~tag:"byz-test" ())
        in
        let honest = Pset.of_list [ 0; 1; 2 ] in
        let proposals = [| true; true; true; true |] in
        Alcotest.(check int) "oracles clean" 0
          (List.length (Oracle.check_abba ~honest ~proposals d)));
    Alcotest.test_case "abc equivocator/replayer cannot fork the order"
      `Quick (fun () ->
        let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed:4 () in
        let logs = Array.make 4 [] in
        let wrap =
          Byzantine.wrap_of ~sim ~keyring ~seed:4 ~set:(Pset.singleton 3)
            (Byzantine.For_abc.byzantine ~tag:"byz-abc" ())
        in
        let nodes =
          Stack.deploy_abc ~wrap ~sim ~keyring ~tag:"byz-abc"
            ~deliver:(fun p payload -> logs.(p) <- payload :: logs.(p))
            ()
        in
        Abc.broadcast nodes.(0) "one";
        Abc.broadcast nodes.(1) "two";
        let honest = Pset.of_list [ 0; 1; 2 ] in
        Sim.run sim
          ~until:(fun () ->
            Pset.for_all (fun p -> List.length logs.(p) >= 2) honest);
        let ordered = Array.map List.rev logs in
        (* A corrupted party may legitimately inject its own (validly
           signed) payloads; what must survive is the total order and
           delivery of the honest payloads — exactly what the oracles
           check. *)
        Alcotest.(check int) "oracles clean" 0
          (List.length (Oracle.check_abc ~honest ~expected:2 ordered));
        Pset.iter
          (fun p ->
            List.iter
              (fun payload ->
                Alcotest.(check bool)
                  (Printf.sprintf "honest payload %s ordered at %d" payload p)
                  true
                  (List.mem payload ordered.(p)))
              [ "one"; "two" ])
          honest) ]

(* ---------------- campaign regression sweep -------------------------- *)

let campaign_tests =
  [ Alcotest.test_case
      "50-seed sweep: drop/dup-reorder/partition, maximal corrupted set"
      `Slow (fun () ->
        (* Acceptance regression: both protocols, all three chaos
           policies, a maximal corrupted set per run (rotating through
           the structure's maximal sets), 50 seeds.  Safety must hold
           everywhere; liveness wherever channels are reliable. *)
        let cfg =
          Campaign.default_config ~seeds:50
            ~mixes:[ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
            ()
        in
        let rep = Campaign.run cfg in
        Alcotest.(check int) "runs" 300 (List.length rep.Campaign.results);
        List.iter
          (fun (r : Campaign.run_result) ->
            Alcotest.(check bool)
              (Printf.sprintf "corrupted set is maximal (seed %d)" r.Campaign.r_seed)
              true
              (Pset.card r.Campaign.r_corrupted = 1))
          rep.Campaign.results;
        Alcotest.(check int) "zero safety violations" 0
          (Campaign.safety_count rep);
        Alcotest.(check int) "zero liveness violations under reliable policies"
          0
          (Campaign.gating_liveness_count rep));
    Alcotest.test_case
      "50-seed batched sweep: batch=8/window=4 keeps safety and liveness"
      `Slow (fun () ->
        (* PR-4 acceptance regression: rerun the chaos sweep (reliable
           policies only) with the throughput policy enabled and with
           the seed-equivalent default, same seeds; the safety oracles
           (total order included) must stay silent under batching and
           pipelining exactly as they do unbatched. *)
        let run_with abc_policy =
          Campaign.run
            (Campaign.default_config ~seeds:50
               ~protocols:[ Campaign.P_abc ]
               ~policies:
                 [ Campaign.dup_reorder_policy ();
                   Campaign.partition_policy ~n:4 () ]
               ~mixes:
                 [ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
               ~payloads:6 ~abc_policy ())
        in
        List.iter
          (fun (name, rep) ->
            Alcotest.(check int)
              (name ^ ": runs") 100
              (List.length rep.Campaign.results);
            Alcotest.(check int)
              (name ^ ": zero safety violations")
              0 (Campaign.safety_count rep);
            Alcotest.(check int)
              (name ^ ": zero gating liveness violations")
              0
              (Campaign.gating_liveness_count rep))
          [ ("unbatched", run_with Abc.default_policy);
            ( "batched",
              run_with
                { Abc.default_policy with max_batch_msgs = 8; window = 4 } )
          ]);
    Alcotest.test_case "report round-trips and validates" `Quick (fun () ->
        let cfg =
          Campaign.default_config ~seeds:2
            ~protocols:[ Campaign.P_abba ]
            ~mixes:[ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
            ()
        in
        let rep = Campaign.run cfg in
        let doc = Campaign.to_json ~id:"test" ~wall:0.1 rep in
        (match Obs_json.of_string (Obs_json.to_string doc) with
        | Error e -> Alcotest.failf "round-trip parse: %s" e
        | Ok doc' ->
          (match Campaign.validate_json doc' with
          | Ok () -> ()
          | Error e -> Alcotest.failf "validate: %s" e));
        (* decide-time histogram accumulated under layer "faults" *)
        let snap = Obs.snapshot rep.Campaign.obs in
        match
          Obs_registry.find snap
            ~labels:[ ("layer", "faults"); ("protocol", "abba") ]
            "decide_time"
        with
        | Some (Obs_registry.Vhistogram h) ->
          Alcotest.(check bool) "observed once per decided run" true
            (Obs_histogram.count h > 0)
        | _ -> Alcotest.fail "missing decide_time histogram");
    Alcotest.test_case "validator rejects wrong shapes" `Quick (fun () ->
        let check_bad doc =
          Alcotest.(check bool) "rejected" true
            (Result.is_error (Campaign.validate_json doc))
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
               ("wall_time_s", Obs_json.Float 0.0);
               ("runs", Obs_json.Int (-3)) ])) ]

(* ---------------- crash recovery ------------------------------------- *)

let recovery_tests =
  [ Alcotest.test_case "crashed party: set_handler raises, recover resets"
      `Quick (fun () ->
        let sim : int Sim.t = Sim.create ~n:2 ~seed:7 () in
        let got = ref [] in
        Sim.set_handler sim 1 (fun ~src:_ m -> got := m :: !got);
        Sim.send sim ~src:0 ~dst:1 1;
        Sim.run sim;
        Sim.crash sim 1;
        Alcotest.(check bool) "crashed" true (Sim.is_crashed sim 1);
        (* Re-arming a crashed slot must be an explicit error, not a
           silent resurrection. *)
        (try
           Sim.set_handler sim 1 (fun ~src:_ _ -> ());
           Alcotest.fail "set_handler on a crashed party did not raise"
         with Invalid_argument _ -> ());
        Sim.send sim ~src:0 ~dst:1 2;
        Sim.run sim;
        (* Recovery clears the crash flag and drops the dead handler:
           nothing of the old incarnation survives. *)
        Sim.recover sim 1;
        Alcotest.(check bool) "recovered" false (Sim.is_crashed sim 1);
        Sim.send sim ~src:0 ~dst:1 3;
        Sim.run sim;
        Sim.set_handler sim 1 (fun ~src:_ m -> got := m :: !got);
        Sim.send sim ~src:0 ~dst:1 4;
        Sim.run sim;
        Alcotest.(check (list int))
          "only pre-crash and post-rearm messages delivered" [ 4; 1 ] !got);
    Alcotest.test_case "crash-rejoin: victim rejoins via certified transfer"
      `Quick (fun () ->
        let cfg =
          Rejoin.default_config ~seeds:1 ~payloads:12
            ~scenarios:[ Rejoin.Crash_rejoin ] ~variants:[ false ] ()
        in
        let env = Rejoin.prepare cfg in
        let r =
          Rejoin.run_one env cfg ~scenario:Rejoin.Crash_rejoin ~forged:false
            ~seed:1
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check bool) "transferred" true r.Rejoin.jr_transferred;
        Alcotest.(check bool) "transfer moved bytes" true
          (r.Rejoin.jr_transfer_bytes > 0);
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "partition heal: victim catches back up" `Quick
      (fun () ->
        let cfg =
          Rejoin.default_config ~seeds:1 ~payloads:12
            ~scenarios:[ Rejoin.Partition_heal ] ~variants:[ false ] ()
        in
        let env = Rejoin.prepare cfg in
        let r =
          Rejoin.run_one env cfg ~scenario:Rejoin.Partition_heal
            ~forged:false ~seed:2
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "forged snapshot is rejected on certificate check"
      `Quick (fun () ->
        (* Reliable channels, so the forged server's reply always
           reaches the fetching victim: the rejection is deterministic,
           and recovery must come from the honest quorum. *)
        let cfg =
          Rejoin.default_config ~seeds:1 ~payloads:12 ~drop:0.0
            ~scenarios:[ Rejoin.Crash_rejoin ] ~variants:[ true ] ()
        in
        let env = Rejoin.prepare cfg in
        let r =
          Rejoin.run_one env cfg ~scenario:Rejoin.Crash_rejoin ~forged:true
            ~seed:3
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check bool) "transferred" true r.Rejoin.jr_transferred;
        Alcotest.(check bool) "forged reply rejected" true
          (r.Rejoin.jr_rejected > 0);
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "checkpoint GC bounds the delivered log" `Quick
      (fun () ->
        let cfg = Rejoin.default_config ~seeds:1 ~mem_payloads:96 () in
        let env = Rejoin.prepare cfg in
        let m = Rejoin.memory_probe env cfg ~seed:1 in
        Alcotest.(check int) "gc-off log grows with the stream" 96
          m.Rejoin.m_gc_off_peak;
        Alcotest.(check bool)
          (Printf.sprintf "gc-on log stays bounded (%d < 96)"
             m.Rejoin.m_gc_on_peak)
          true
          (m.Rejoin.m_gc_on_peak < 96);
        Alcotest.(check bool) "rounds were retired" true
          (m.Rejoin.m_gc_on_retired > 0);
        Alcotest.(check bool) "checkpoints certified" true
          (m.Rejoin.m_gc_on_ckpt_round > 0));
    Alcotest.test_case
      "50-seed recovery sweep: crash-rejoin + partition-heal, forged server"
      `Slow (fun () ->
        (* Acceptance regression: one replica knocked out mid-stream
           under 30% drop with the link on, brought back, and required
           to agree on the whole digest history; the crash-rejoin victim
           must get there via certified state transfer, and a sweep with
           a forged server must witness an explicit rejection. *)
        let cfg = Rejoin.default_config ~seeds:50 ~payloads:12 () in
        let rep = Rejoin.run ~memory:false cfg in
        Alcotest.(check int) "runs" 200 (List.length rep.Rejoin.results);
        Alcotest.(check int) "zero safety violations" 0
          (Rejoin.safety_count rep);
        Alcotest.(check int) "every victim recovered" 200
          (Rejoin.recovered_count rep);
        List.iter
          (fun (r : Rejoin.run_result) ->
            if r.Rejoin.jr_scenario = Rejoin.Crash_rejoin then
              Alcotest.(check bool)
                (Printf.sprintf "seed %d rejoined via state transfer"
                   r.Rejoin.jr_seed)
                true r.Rejoin.jr_transferred)
          rep.Rejoin.results;
        Alcotest.(check bool) "forged sweep witnessed a rejection" true
          (Rejoin.forged_witnessed rep);
        (* Round-trip the report through the schema validator. *)
        let doc = Rejoin.to_json ~id:"t" ~wall:0.0 rep in
        (match
           Obs_json.of_string (Obs_json.to_canonical_string doc)
         with
        | Error e -> Alcotest.failf "re-parse: %s" e
        | Ok doc' ->
          (match Rejoin.validate_json doc' with
          | Ok () -> ()
          | Error e -> Alcotest.failf "validate: %s" e))) ]

(* ---------------- sustained-load service campaigns ------------------- *)

let svc_campaign_tests =
  let small ?(variants = [ Svc.Drop_arq; Svc.Crash_rejoin ]) ?(seeds = 1) () =
    Svc.default_config ~seeds ~requests:6 ~clients:2 ~window:2 ~keyspace:4
      ~kinds:[ Svc.Directory_svc ] ~variants ()
  in
  [ Alcotest.test_case "client pipeline survives 30% drop with the ARQ link"
      `Quick (fun () ->
        let cfg = small () in
        let env = Svc.prepare cfg in
        let r =
          Svc.run_one env cfg ~kind:Svc.Directory_svc ~variant:Svc.Drop_arq
            ~seed:11
        in
        Alcotest.(check int) "quota met" r.Svc.vr_target r.Svc.vr_completed;
        Alcotest.(check int) "every accepted certificate verified"
          r.Svc.vr_completed r.Svc.vr_verified;
        Alcotest.(check int) "no certificate failures" 0
          r.Svc.vr_cert_failures;
        Alcotest.(check int) "no violations" 0
          (List.length r.Svc.vr_violations));
    Alcotest.test_case "client pipeline survives a crash-rejoin mid-campaign"
      `Quick (fun () ->
        let cfg = small () in
        let env = Svc.prepare cfg in
        let r =
          Svc.run_one env cfg ~kind:Svc.Directory_svc
            ~variant:Svc.Crash_rejoin ~seed:12
        in
        Alcotest.(check bool) "a victim was crashed" true (r.Svc.vr_victim >= 0);
        Alcotest.(check int) "quota met" r.Svc.vr_target r.Svc.vr_completed;
        Alcotest.(check int) "every accepted certificate verified"
          r.Svc.vr_completed r.Svc.vr_verified;
        Alcotest.(check int) "no violations" 0
          (List.length r.Svc.vr_violations));
    Alcotest.test_case "notary sweep drops the crash-rejoin variant" `Quick
      (fun () ->
        Alcotest.(check bool) "crash-rejoin filtered" true
          (Svc.variants_for Svc.Notary_svc
             [ Svc.Benign; Svc.Crash_rejoin ]
          = [ Svc.Benign ]);
        Alcotest.(check bool) "plain kinds keep it" true
          (Svc.variants_for Svc.Ca_svc [ Svc.Crash_rejoin ]
          = [ Svc.Crash_rejoin ]));
    Alcotest.test_case
      "50-seed service sweep: drop-arq + crash-rejoin, certificates and dedup"
      `Slow (fun () ->
        (* Acceptance regression for the client pipeline: 50 seeds per
           variant under 30% chaos drop with the ARQ engine link, and
           with one replica crashed and revived mid-campaign.  Every run
           must close its quota, every accepted reply certificate must
           re-verify, suppressed duplicates must exactly account for the
           replay volume that reached the order (and never exceed the
           clients' resend volume), and the safety oracles — total order
           over digest histories included — must stay silent. *)
        let cfg = small ~seeds:50 () in
        let rep = Svc.run cfg in
        Alcotest.(check int) "runs" 100 (List.length rep.Svc.results);
        Alcotest.(check int) "zero safety violations" 0
          (Svc.safety_count rep);
        Alcotest.(check int) "zero liveness violations" 0
          (Svc.liveness_count rep);
        Alcotest.(check int) "every quota closed" (Svc.target_total rep)
          (Svc.completed_total rep);
        Alcotest.(check int) "zero certificate failures" 0
          (Svc.cert_failures_total rep);
        List.iter
          (fun (r : Svc.run_result) ->
            let tag =
              Printf.sprintf "%s seed %d"
                (Svc.variant_label r.Svc.vr_variant)
                r.Svc.vr_seed
            in
            Alcotest.(check int)
              (tag ^ ": certificates all verified")
              r.Svc.vr_completed r.Svc.vr_verified;
            Alcotest.(check int)
              (tag ^ ": dedup accounts for the replay volume")
              (r.Svc.vr_ordered - r.Svc.vr_executed)
              r.Svc.vr_dup_suppressed;
            Alcotest.(check bool)
              (tag ^ ": suppressed replays never exceed client resends")
              true
              (r.Svc.vr_dup_suppressed <= r.Svc.vr_retries))
          rep.Svc.results;
        (* Round-trip the report through the schema validator. *)
        let doc = Svc.to_json ~id:"t" ~wall:0.0 rep in
        match Obs_json.of_string (Obs_json.to_canonical_string doc) with
        | Error e -> Alcotest.failf "re-parse: %s" e
        | Ok doc' ->
          (match Svc.validate_json doc' with
          | Ok () -> ()
          | Error e -> Alcotest.failf "validate: %s" e));
    Alcotest.test_case "svc validator rejects wrong shapes" `Quick (fun () ->
        let check_bad doc =
          Alcotest.(check bool) "rejected" true
            (Result.is_error (Svc.validate_json doc))
        in
        check_bad (Obs_json.Obj []);
        check_bad
          (Obs_json.Obj
             [ ("schema", Obs_json.Str Report.schema);
               ("kind", Obs_json.Str "recov") ]);
        check_bad
          (Obs_json.Obj
             [ ("schema", Obs_json.Str Report.schema);
               ("kind", Obs_json.Str "svc");
               ("experiment", Obs_json.Str "x");
               ("wall_time_s", Obs_json.Float 0.0);
               ("runs", Obs_json.Int 0) ])) ]

(* ---------------- campaign table and report gates ------------------- *)

(* One small real document per campaign kind, each from a genuine run,
   shared by the table tests below. *)
let small_faults_cfg () =
  Campaign.default_config ~seeds:1 ~protocols:[ Campaign.P_abba ]
    ~mixes:[ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
    ()

let real_docs =
  lazy
    (let faults =
       Campaign.to_json ~id:"t" ~wall:0.1 (Campaign.run (small_faults_cfg ()))
     in
     let flight =
       let cfg = small_faults_cfg () in
       let env = Campaign.prepare cfg in
       let fl = Flight.create ~obs:env.Sweep.obs () in
       ignore (Campaign.run_prepared ~flight:fl env cfg);
       Flight.to_json ~wall:0.1 ~obs:env.Sweep.obs
         (Flight.summarize ~id:"t" ~config:(Campaign.config_json cfg)
            (Flight.runs fl))
     in
     let recov =
       Rejoin.to_json ~id:"t" ~wall:0.1
         (Rejoin.run ~memory:false
            (Rejoin.default_config ~seeds:1 ~payloads:12
               ~scenarios:[ Rejoin.Crash_rejoin ] ~variants:[ false ] ()))
     in
     let epoch =
       Refresh.to_json ~id:"t" ~wall:0.1
         (Refresh.run
            (Refresh.default_config ~seeds:1 ~payloads:8
               ~scenarios:[ Refresh.Refresh_only ] ~variants:[ Refresh.Benign ]
               ()))
     in
     let svc =
       Svc.to_json ~id:"t" ~wall:0.1
         (Svc.run
            (Svc.default_config ~seeds:1 ~requests:6 ~clients:2 ~window:2
               ~keyspace:4 ~kinds:[ Svc.Directory_svc ] ~variants:[ Svc.Benign ]
               ()))
     in
     [ (Report.Faults, faults); (Report.Flight, flight); (Report.Recov, recov);
       (Report.Epoch, epoch); (Report.Svc, svc) ])

(* The blessed quick artifacts: a real document of every campaign plus
   the TPUT bench report. *)
let baseline_docs =
  lazy
    (List.map
       (fun prefix ->
         match
           Report.read_file
             (Printf.sprintf "../baselines/%s_BASELINE.json" prefix)
         with
         | Ok doc -> (prefix, doc)
         | Error e -> Alcotest.failf "%s baseline: %s" prefix e)
       [ "FAULTS"; "FAULTS_LINK"; "FLIGHT"; "RECOV"; "EPOCH"; "BENCH_SVC";
         "BENCH_TPUT" ])

(* [doc] with the member at [path] replaced by [f member] (dropped on
   [None]). *)
let rec map_path f doc path =
  match (doc, path) with
  | Obs_json.Obj kvs, [ k ] ->
    Obs_json.Obj
      (List.filter_map
         (fun (k', v) ->
           if k' = k then Option.map (fun v -> (k', v)) (f v) else Some (k', v))
         kvs)
  | Obs_json.Obj kvs, k :: rest ->
    Obs_json.Obj
      (List.map
         (fun (k', v) -> (k', if k' = k then map_path f v rest else v))
         kvs)
  | _ -> doc

(* [doc] with its gate row list rewritten by [f]. *)
let map_gate f doc =
  map_path
    (fun g -> Option.map (fun l -> Obs_json.Arr (f l)) (Obs_json.to_list g))
    doc [ "gate" ]

let set_member k v row = map_path (fun _ -> Some v) row [ k ]

let gate_metric row =
  Option.value ~default:""
    (Option.bind (Obs_json.member "metric" row) Obs_json.to_str)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let table_tests =
  [ Alcotest.test_case "campaign table: unique rows, every schema dispatched"
      `Quick (fun () ->
        let cs = Campaign_table.campaigns in
        let unique what xs =
          Alcotest.(check int) (what ^ " unique") (List.length xs)
            (List.length (List.sort_uniq compare xs))
        in
        unique "names" (List.map (fun c -> c.Campaign_table.name) cs);
        unique "artifact prefixes"
          (List.map (fun c -> c.Campaign_table.prefix) cs);
        unique "kinds" (List.map Report.kind_label Report.kinds);
        List.iter
          (fun k ->
            Alcotest.(check bool) (Report.kind_label k ^ " has a label") true
              (Report.kind_of_label (Report.kind_label k) = Some k))
          (Report.Bench :: List.map (fun c -> c.Campaign_table.kind) cs);
        (* Every real document passes bench-check's dispatch; dropping one
           per-run row (so the row count no longer matches "runs") is
           rejected by the shared row combinator, once per kind. *)
        List.iter
          (fun (kind, doc) ->
            let kind = Report.kind_label kind in
            (match Campaign_table.check_doc doc with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: document rejected: %s" kind e);
            (* Flight summaries aggregate per cell: no per-run rows. *)
            let per_run =
              match kind with
              | "faults" -> Some [ "link"; "per_run" ]
              | "flight" -> None
              | _ -> Some [ "per_run" ]
            in
            Option.iter
              (fun path ->
                let short =
                  map_path
                    (fun rows ->
                      Option.map
                        (fun l -> Obs_json.Arr (List.tl l))
                        (Obs_json.to_list rows))
                    doc path
                in
                match Campaign_table.check_doc short with
                | Ok _ -> Alcotest.failf "%s: short per_run accepted" kind
                | Error e ->
                  Alcotest.(check bool)
                    (kind ^ ": row count rejected (" ^ e ^ ")")
                    true (contains e "rows for"))
              per_run)
          (Lazy.force real_docs));
    Alcotest.test_case
      "report gates: bench-check and compare reject bad rows" `Quick
      (fun () ->
        List.iter
          (fun (name, doc) ->
            (match Campaign_table.check_doc doc with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: bench-check rejects: %s" name e);
            (match Compare.compare_docs ~baseline:doc ~candidate:doc () with
            | Error e -> Alcotest.failf "%s: self-compare: %s" name e
            | Ok rep ->
              Alcotest.(check bool) (name ^ ": self-compare all-neutral") true
                (List.for_all
                   (fun (r : Compare.row) ->
                     r.Compare.verdict = Compare.Neutral
                     || r.Compare.verdict = Compare.Informational)
                   rep.Compare.rows));
            let rejected what bad =
              Alcotest.(check bool)
                (name ^ ": " ^ what ^ ", bench-check rejects")
                true
                (Result.is_error (Campaign_table.check_doc bad));
              Alcotest.(check bool) (name ^ ": " ^ what ^ ", compare rejects")
                true
                (Result.is_error
                   (Compare.compare_docs ~baseline:doc ~candidate:bad ()))
            in
            let first f = function r :: rest -> f r :: rest | [] -> [] in
            rejected "first gate row removed" (map_gate List.tl doc);
            rejected "wall-time row removed"
              (map_gate
                 (List.filter (fun r -> gate_metric r <> Report.wall_metric))
                 doc);
            rejected "gate row duplicated"
              (map_gate (fun l -> List.hd l :: l) doc);
            rejected "non-finite gate value"
              (map_gate (first (set_member "value" (Obs_json.Float nan))) doc);
            rejected "unknown better"
              (map_gate (first (set_member "better" (Obs_json.Str "sideways")))
                 doc);
            (* Any one baseline row missing from the candidate is a
               structural error, not a verdict. *)
            let gate =
              Option.value ~default:[]
                (Option.bind (Obs_json.member "gate" doc) Obs_json.to_list)
            in
            List.iter
              (fun row ->
                let m = gate_metric row in
                Alcotest.(check bool) (name ^ ": candidate without " ^ m) true
                  (Result.is_error
                     (Compare.compare_docs ~baseline:doc
                        ~candidate:
                          (map_gate
                             (List.filter (fun r -> gate_metric r <> m))
                             doc)
                        ())))
              gate)
          (Lazy.force baseline_docs));
    Alcotest.test_case "tput gate regresses when one row's throughput halves"
      `Quick (fun () ->
        let base = List.assoc "BENCH_TPUT" (Lazy.force baseline_docs) in
        let num row k =
          Option.get (Option.bind (Obs_json.member k row) Obs_json.to_float)
        in
        let gate_of row =
          Bench_out.tput_gate
            ~batch:(int_of_float (num row "batch"))
            ~window:(int_of_float (num row "window"))
            ~decided_per_1k_steps:(num row "decided_per_1k_steps")
            ~rounds:(int_of_float (num row "rounds"))
            ~delivered:(int_of_float (num row "delivered"))
        in
        let rows =
          Option.get
            (Option.bind (Obs_json.member "tput" base) Obs_json.to_list)
        in
        let stated =
          match Report.header base with
          | Ok h -> h.Report.gate
          | Error e -> Alcotest.failf "baseline: %s" e
        in
        (* The blessed report states every sweep row's throughput. *)
        List.iter
          (fun (g : Report.gate) ->
            Alcotest.(check bool) (g.Report.metric ^ " stated") true
              (List.mem g stated))
          (List.concat_map gate_of rows);
        (* The candidate the bench would write with the first row's
           throughput halved: the tput row and its gate rows. *)
        let halved =
          set_member "decided_per_1k_steps"
            (Obs_json.Float (num (List.hd rows) "decided_per_1k_steps" /. 2.0))
            (List.hd rows)
        in
        let restated = gate_of halved in
        let candidate =
          map_gate
            (List.map (fun r ->
                 match
                   List.find_opt
                     (fun (g : Report.gate) -> g.Report.metric = gate_metric r)
                     restated
                 with
                 | Some g ->
                   set_member "value" (Obs_json.Float g.Report.value) r
                 | None -> r))
            (map_path
               (fun _ -> Some (Obs_json.Arr (halved :: List.tl rows)))
               base [ "tput" ])
        in
        match Compare.compare_docs ~baseline:base ~candidate () with
        | Error e -> Alcotest.failf "compare: %s" e
        | Ok rep ->
          Alcotest.(check bool) "gate trips" false (Compare.ok rep);
          Alcotest.(check (list string)) "only the halved row regressed"
            [ (List.hd restated).Report.metric ]
            (List.filter_map
               (fun (r : Compare.row) ->
                 if r.Compare.verdict = Compare.Regressed then
                   Some r.Compare.metric
                 else None)
               rep.Compare.rows));
    Alcotest.test_case "crypto path counters are info rows, costs are gated"
      `Quick (fun () ->
        (* A bench report over the process-global crypto counters after a
           fixed base load plus [extra]. *)
        let doc extra =
          Obs_crypto.reset ();
          Obs_crypto.enable ();
          Fun.protect
            ~finally:(fun () ->
              Obs_crypto.disable ();
              Obs_crypto.reset ())
            (fun () ->
              for _ = 1 to 100 do
                Obs_crypto.modexp ();
                Obs_crypto.recomb_cache_hit ()
              done;
              for _ = 1 to 50 do
                extra ()
              done;
              Bench_out.document ~id:"DIR" ~wall:0.0 (Obs.create ()) [])
        in
        let base = doc ignore in
        let stated =
          match Report.header base with
          | Ok h -> h.Report.gate
          | Error e -> Alcotest.failf "base: %s" e
        in
        let better m =
          match
            List.find_opt
              (fun (g : Report.gate) -> g.Report.metric = "crypto " ^ m)
              stated
          with
          | Some g -> Report.better_label g.Report.better
          | None -> Alcotest.failf "no gate row for crypto %s" m
        in
        List.iter
          (fun m -> Alcotest.(check string) (m ^ " is info") "info" (better m))
          [ "recomb_cache_hits"; "lazy_verify_hits"; "batch_verify";
            "batch_verify_size" ];
        List.iter
          (fun m -> Alcotest.(check string) (m ^ " is a cost") "lower" (better m))
          [ "modexp"; "share_verify"; "batch_verify_fallback";
            "recomb_cache_misses" ];
        let against candidate metric =
          match Compare.compare_docs ~baseline:base ~candidate () with
          | Error e -> Alcotest.failf "compare: %s" e
          | Ok rep ->
            ( Compare.ok rep,
              (List.find
                 (fun (r : Compare.row) -> r.Compare.metric = metric)
                 rep.Compare.rows)
                .Compare.verdict )
        in
        let ok, v =
          against (doc Obs_crypto.recomb_cache_hit) "crypto recomb_cache_hits"
        in
        Alcotest.(check bool) "more cache hits: no regression" true ok;
        Alcotest.(check bool) "cache hits informational" true
          (v = Compare.Informational);
        let ok, v = against (doc Obs_crypto.modexp) "crypto modexp" in
        Alcotest.(check bool) "more modexps: regression" false ok;
        Alcotest.(check bool) "modexp regressed" true (v = Compare.Regressed))
  ]

let suite =
  ( "faults",
    chaos_tests @ partition_tests @ drop_path_tests @ oracle_tests
    @ byzantine_tests @ campaign_tests @ recovery_tests
    @ svc_campaign_tests @ table_tests )
