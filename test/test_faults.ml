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
        (try
           Sim.run ~max_steps:25 sim;
           Alcotest.fail "expected Out_of_steps"
         with Sim.Out_of_steps { detail; _ } ->
           Alcotest.(check string) "probe rendered" "probe: 1 pending" detail);
        (* A service deployment installs the ABC probe too: a budget
           exhausted with one client request in flight names the
           broadcast rounds instead of reporting an empty detail. *)
        let keyring =
          Keyring.deal ~rsa_bits:192 ~seed:42 (AS.threshold ~n:4 ~t:1)
        in
        let sim = Sim.create ~n:4 ~seed:23 () in
        ignore
          (Service.deploy ~sim ~keyring ~mode:Service.Plain
             ~make_app:(fun () body -> body) ());
        let c = Service.Client.create ~sim ~keyring ~slot:4 ~seed:5 () in
        Service.Client.request c ~mode:Service.Plain "ping" (fun _ -> ());
        try
          Sim.run ~max_steps:60 sim;
          Alcotest.fail "expected Out_of_steps"
        with Sim.Out_of_steps { detail; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "service detail from the abc probe: %S" detail)
            true
            (String.starts_with ~prefix:"abc" detail)) ]

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

(* One run of a campaign's cell under its default timeline. *)
let run_cell c cell ~seed = Sweep.run_cell c (Sweep.prepare c) cell ~seed

let silent (_, _, (m : Campaign.mix)) = m.m_kind = Campaign.Silent
let faults ?abc_policy ~seeds size =
  Campaign.campaign ?abc_policy ~link:false (Support.core ~seeds size)

(* ABBA's silent cells, two payloads per run. *)
let small_faults ~seeds =
  Support.only
    (fun ((protocol, _, _) as cell) -> protocol = Campaign.P_abba && silent cell)
    (faults ~seeds 2)

let campaign_tests =
  [ Alcotest.test_case
      "50-seed sweep: drop/dup-reorder/partition, maximal corrupted set"
      `Slow (fun () ->
        (* Acceptance regression: both protocols, all three chaos
           policies, a maximal corrupted set per run (rotating through
           the structure's maximal sets), 50 seeds.  Safety must hold
           everywhere; liveness wherever channels are reliable. *)
        let rep = Sweep.sweep (Support.only silent (faults ~seeds:50 2)) in
        let results = Sweep.runs rep in
        Alcotest.(check int) "runs" 300 (List.length results);
        List.iter
          (fun (r : Campaign.run_result) ->
            Alcotest.(check bool)
              (Printf.sprintf "corrupted set is maximal (seed %d)" r.Campaign.r_seed)
              true
              (Pset.card r.Campaign.r_corrupted = 1))
          results;
        Alcotest.(check int) "zero safety violations" 0
          rep.Sweep.totals.Sweep.safety;
        Alcotest.(check int) "zero liveness violations under reliable policies"
          0
          (Campaign.gating_liveness_count results));
    Alcotest.test_case
      "50-seed batched sweep: batch=8/window=4 keeps safety and liveness"
      `Slow (fun () ->
        (* PR-4 acceptance regression: rerun the chaos sweep (reliable
           policies only) with the throughput policy enabled and with
           the seed-equivalent default, same seeds; the safety oracles
           (total order included) must stay silent under batching and
           pipelining exactly as they do unbatched. *)
        let run_with abc_policy =
          Sweep.sweep
          @@ Support.only
               (fun ((protocol, policy, _) as cell) ->
                 protocol = Campaign.P_abc
                 && policy.Campaign.p_name <> "drop"
                 && silent cell)
          @@ faults ~abc_policy ~seeds:50 6
        in
        List.iter
          (fun (name, rep) ->
            Alcotest.(check int)
              (name ^ ": runs") 100 rep.Sweep.totals.Sweep.runs;
            Alcotest.(check int)
              (name ^ ": zero safety violations")
              0 rep.Sweep.totals.Sweep.safety;
            Alcotest.(check int)
              (name ^ ": zero gating liveness violations")
              0
              (Campaign.gating_liveness_count (Sweep.runs rep)))
          [ ("unbatched", run_with Abc.default_policy);
            ( "batched",
              run_with
                { Abc.default_policy with max_batch_msgs = 8; window = 4 } )
          ]);
    Alcotest.test_case "report round-trips and validates" `Quick (fun () ->
        let rep = Sweep.sweep (small_faults ~seeds:2) in
        let doc = Sweep.to_json ~id:"test" ~wall:0.1 rep in
        (match Obs_json.of_string (Obs_json.to_string doc) with
        | Error e -> Alcotest.failf "round-trip parse: %s" e
        | Ok doc' ->
          (match Campaign_table.check_doc doc' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "validate: %s" e));
        (* decide-time histogram accumulated under layer "faults" *)
        let snap = Obs.snapshot rep.Sweep.env.Sweep.obs in
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
        let r =
          run_cell
            (Rejoin.campaign (Support.core ~seeds:1 12))
            (Rejoin.Crash_rejoin, false) ~seed:1
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check bool) "transferred" true r.Rejoin.jr_transferred;
        Alcotest.(check bool) "transfer moved bytes" true
          (r.Rejoin.jr_transfer_bytes > 0);
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "revived slot is honest even if it was wrapped" `Quick
      (fun () ->
        (* Stack.revive's contract: the wrap applies to the first
           incarnation only.  Party 3 is deployed silent (it receives
           but never sends or delivers); once crashed and revived it
           must catch up and deliver the whole stream. *)
        let payloads = 6 in
        let keyring =
          Keyring.deal ~rsa_bits:192 ~seed:43 (AS.threshold ~n:4 ~t:1)
        in
        let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed:5 () in
        let dep =
          Recovery.deploy
            ~wrap:
              (Byzantine.wrap_of ~sim ~keyring ~seed:5 ~set:(Pset.singleton 3)
                 Byzantine.silent)
            ~sim ~keyring ~tag:"revive-honest"
            ~deliver:(fun _ _ -> ())
            ()
        in
        let digests p =
          Abc.delivered_digests (Recovery.abc (Recovery.nodes dep).(p))
        in
        for k = 1 to payloads do
          Recovery.submit (Recovery.nodes dep).(k mod 3)
            (Printf.sprintf "revive-%d" k)
        done;
        let delivered p = List.length (digests p) >= payloads in
        Sim.run sim ~until:(fun () -> List.for_all delivered [ 0; 1; 2 ]);
        Alcotest.(check int) "the silent incarnation delivers nothing" 0
          (List.length (digests 3));
        Sim.crash sim 3;
        ignore (Recovery.revive dep 3);
        Sim.run sim ~max_steps:200_000 ~until:(fun () -> delivered 3);
        Alcotest.(check (list string)) "revived party delivers the stream"
          (digests 0) (digests 3));
    Alcotest.test_case "partition heal: victim catches back up" `Quick
      (fun () ->
        let r =
          run_cell
            (Rejoin.campaign (Support.core ~seeds:1 12))
            (Rejoin.Partition_heal, false) ~seed:2
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "forged snapshot is rejected on certificate check"
      `Quick (fun () ->
        (* Reliable channels, so the forged server's reply always
           reaches the fetching victim: the rejection is deterministic,
           and recovery must come from the honest quorum. *)
        let r =
          run_cell
            (Rejoin.campaign (Support.core ~drop:0.0 ~seeds:1 12))
            (Rejoin.Crash_rejoin, true) ~seed:3
        in
        Alcotest.(check bool) "recovered" true r.Rejoin.jr_recovered;
        Alcotest.(check bool) "transferred" true r.Rejoin.jr_transferred;
        Alcotest.(check bool) "forged reply rejected" true
          (r.Rejoin.jr_rejected > 0);
        Alcotest.(check int) "no violations" 0
          (List.length r.Rejoin.jr_violations));
    Alcotest.test_case "checkpoint GC bounds the delivered log" `Quick
      (fun () ->
        let env = Sweep.prepare (Rejoin.campaign (Support.core ~seeds:1 24)) in
        let m = Rejoin.memory_probe env ~payloads:96 ~seed:1 in
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
        let rep = Sweep.sweep (Rejoin.campaign (Support.core ~seeds:50 12)) in
        let results = Sweep.runs rep in
        Alcotest.(check int) "runs" 200 (List.length results);
        Alcotest.(check int) "zero safety violations" 0
          rep.Sweep.totals.Sweep.safety;
        Alcotest.(check int) "every victim recovered" 200
          (List.length (List.filter (fun r -> r.Rejoin.jr_recovered) results));
        List.iter
          (fun (r : Rejoin.run_result) ->
            if r.Rejoin.jr_scenario = Rejoin.Crash_rejoin then
              Alcotest.(check bool)
                (Printf.sprintf "seed %d rejoined via state transfer"
                   r.Rejoin.jr_seed)
                true r.Rejoin.jr_transferred)
          results;
        Alcotest.(check bool) "forged sweep witnessed a rejection" true
          (Rejoin.forged_witnessed results);
        (* Round-trip the report through the schema validator. *)
        let doc = Sweep.to_json ~id:"t" ~wall:0.0 rep in
        (match
           Obs_json.of_string (Obs_json.to_canonical_string doc)
         with
        | Error e -> Alcotest.failf "re-parse: %s" e
        | Ok doc' ->
          (match Campaign_table.check_doc doc' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "validate: %s" e))) ]

(* ---------------- sustained-load service campaigns ------------------- *)

let svc_campaign_tests =
  let small ?(seeds = 1) () =
    Support.only
      (fun (kind, variant) ->
        kind = Svc.Directory_svc
        && List.mem variant [ Svc.Drop_arq; Svc.Crash_rejoin ])
      (Svc.campaign ~clients:2 ~window:2 ~keyspace:4 (Support.core ~seeds 6))
  in
  [ Alcotest.test_case "client pipeline survives 30% drop with the ARQ link"
      `Quick (fun () ->
        let r = run_cell (small ()) (Svc.Directory_svc, Svc.Drop_arq) ~seed:11 in
        Alcotest.(check int) "quota met" r.Svc.vr_target r.Svc.vr_completed;
        Alcotest.(check int) "every accepted certificate verified"
          r.Svc.vr_completed r.Svc.vr_verified;
        Alcotest.(check int) "no certificate failures" 0
          r.Svc.vr_cert_failures;
        Alcotest.(check int) "no violations" 0
          (List.length r.Svc.vr_violations));
    Alcotest.test_case "client pipeline survives a crash-rejoin mid-campaign"
      `Quick (fun () ->
        let r =
          run_cell (small ()) (Svc.Directory_svc, Svc.Crash_rejoin) ~seed:12
        in
        Alcotest.(check bool) "a victim was crashed" true (r.Svc.vr_victim >= 0);
        Alcotest.(check int) "quota met" r.Svc.vr_target r.Svc.vr_completed;
        Alcotest.(check int) "every accepted certificate verified"
          r.Svc.vr_completed r.Svc.vr_verified;
        Alcotest.(check int) "no violations" 0
          (List.length r.Svc.vr_violations));
    Alcotest.test_case "notary sweep drops the crash-rejoin variant" `Quick
      (fun () ->
        let c = Svc.campaign (Support.core ~seeds:1 6) in
        Alcotest.(check (list string))
          "crash-rejoin filtered for the notary, kept for plain kinds"
          [ "ca/benign"; "ca/drop-arq"; "ca/crash-rejoin"; "directory/benign";
            "directory/drop-arq"; "directory/crash-rejoin"; "notary/benign";
            "notary/drop-arq" ]
          (List.map c.Sweep.label c.Sweep.cells));
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
        let rep = Sweep.sweep (small ~seeds:50 ()) in
        let results = Sweep.runs rep in
        let total f = Sweep.sum f results in
        Alcotest.(check int) "runs" 100 (List.length results);
        Alcotest.(check int) "zero safety violations" 0
          rep.Sweep.totals.Sweep.safety;
        Alcotest.(check int) "zero liveness violations" 0
          rep.Sweep.totals.Sweep.liveness;
        Alcotest.(check int) "every quota closed"
          (total (fun r -> r.Svc.vr_target))
          (total (fun r -> r.Svc.vr_completed));
        Alcotest.(check int) "zero certificate failures" 0
          (total (fun r -> r.Svc.vr_cert_failures));
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
          results;
        (* Round-trip the report through the schema validator. *)
        let doc = Sweep.to_json ~id:"t" ~wall:0.0 rep in
        match Obs_json.of_string (Obs_json.to_canonical_string doc) with
        | Error e -> Alcotest.failf "re-parse: %s" e
        | Ok doc' ->
          (match Campaign_table.check_doc doc' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "validate: %s" e));
    Alcotest.test_case "svc validator rejects wrong shapes" `Quick (fun () ->
        let check_bad doc =
          Alcotest.(check bool) "rejected" true
            (Result.is_error (Campaign_table.check_doc doc))
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
let real_docs =
  lazy
    (let doc c = Sweep.to_json ~id:"t" ~wall:0.1 (Sweep.sweep c) in
     let faults = doc (small_faults ~seeds:1) in
     let recov =
       doc
         (Support.only
            (( = ) (Rejoin.Crash_rejoin, false))
            (Rejoin.campaign (Support.core ~seeds:1 12)))
     in
     let epoch =
       doc
         (Support.only
            (( = ) (Refresh.Refresh_only, Refresh.Benign))
            (Refresh.campaign (Support.core ~seeds:1 8)))
     in
     let svc =
       doc
         (Support.only
            (( = ) (Svc.Directory_svc, Svc.Benign))
            (Svc.campaign ~clients:2 ~window:2 ~keyspace:4
               (Support.core ~seeds:1 6)))
     in
     [ (Report.Faults, faults); (Report.Recov, recov);
       (Report.Epoch, epoch); (Report.Svc, svc) ])

(* The blessed quick artifacts: a real document of every campaign plus
   the TPUT bench report. *)
let baseline_docs =
  lazy
    (List.map
       (fun prefix ->
         match
           Report.read_file
             (Filename.concat Support.baselines_dir (prefix ^ "_BASELINE.json"))
         with
         | Ok doc -> (prefix, doc)
         | Error e -> Alcotest.failf "%s baseline: %s" prefix e)
       [ "FAULTS"; "FAULTS_LINK"; "RECOV"; "EPOCH"; "BENCH_SVC"; "BENCH_TPUT" ])

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

(* [row] with member [k] set to [v], added when absent. *)
let add_member k v = function
  | Obs_json.Obj kvs -> Obs_json.Obj ((k, v) :: List.remove_assoc k kvs)
  | row -> row

let drop_member k row = map_path (fun _ -> None) row [ k ]

let gate_metric row =
  Option.value ~default:""
    (Option.bind (Obs_json.member "metric" row) Obs_json.to_str)

(* [doc] with gate row [m]'s value set to [v]. *)
let set_gate_value m v doc =
  map_gate
    (List.map (fun r ->
         if gate_metric r = m then set_member "value" (Obs_json.Float v) r
         else r))
    doc

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
          Report.kinds;
        (* Every real document passes bench-check's dispatch; dropping one
           per-run row (so the row count no longer matches "runs") is
           rejected by the shared row combinator, once per kind. *)
        List.iter
          (fun (kind, doc) ->
            let kind = Report.kind_label kind in
            (match Campaign_table.check_doc doc with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: document rejected: %s" kind e);
            let short =
              map_path
                (fun rows ->
                  Option.map
                    (fun l -> Obs_json.Arr (List.tl l))
                    (Obs_json.to_list rows))
                doc [ "per_run" ]
            in
            match Campaign_table.check_doc short with
            | Ok _ -> Alcotest.failf "%s: short per_run accepted" kind
            | Error e ->
              Alcotest.(check bool)
                (kind ^ ": row count rejected (" ^ e ^ ")")
                true (contains e "rows for"))
          (Lazy.force real_docs));
    Alcotest.test_case "config echoes every cell with its timeline" `Quick
      (fun () ->
        (* The echo lists exactly the campaign's cells, in order, each
           with a timeline that decodes to the cell's own: for every row
           of the table at its quick preset, and for a campaign whose
           cells a test kept, as built and as written in its report. *)
        let check name c config =
          let get doc path conv =
            match Report.field doc path conv with
            | Ok v -> v
            | Error e -> Alcotest.failf "%s: %s" name e
          in
          let echoed = get config [ "cells" ] Obs_json.to_list in
          Alcotest.(check (list string))
            (name ^ ": every cell, in order")
            (List.map c.Sweep.label c.Sweep.cells)
            (List.map (fun e -> get e [ "label" ] Obs_json.to_str) echoed);
          List.iter2
            (fun cell e ->
              let what = name ^ ": " ^ c.Sweep.label cell ^ " timeline" in
              match Sweep.timeline_of_json (get e [ "timeline" ] Option.some) with
              | Ok tl -> Alcotest.(check bool) what true (tl = c.Sweep.timeline cell)
              | Error e -> Alcotest.failf "%s: %s" what e)
            c.Sweep.cells echoed
        in
        List.iter
          (fun (row : Campaign_table.campaign) ->
            let (Campaign_table.Packed c) =
              row.campaign (Support.core ~seeds:row.quick.seeds row.quick.size)
            in
            check row.name c (Sweep.config_json c))
          Campaign_table.campaigns;
        let kept = small_faults ~seeds:1 in
        Alcotest.(check int) "three cells kept" 3 (List.length kept.Sweep.cells);
        check "kept" kept (Sweep.config_json kept);
        match
          Report.field
            (List.assoc Report.Faults (Lazy.force real_docs))
            [ "config" ] Option.some
        with
        | Ok config -> check "kept, as written" kept config
        | Error e -> Alcotest.failf "written config: %s" e);
    Alcotest.test_case
      "report gates: bench-check and compare reject bad rows" `Quick
      (fun () ->
        List.iter
          (fun (name, doc) ->
            (match Campaign_table.check_doc doc with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: bench-check rejects: %s" name e);
            (match Compare.compare_docs ~baseline:doc ~candidate:doc with
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
                   (Compare.compare_docs ~baseline:doc ~candidate:bad))
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
            (* Limits: finite, numeric, never on an info row, and present
               on every acceptance row of the kind. *)
            let h =
              match Report.header doc with
              | Ok h -> h
              | Error e -> Alcotest.failf "%s: %s" name e
            in
            let limited =
              List.filter
                (fun (g : Report.gate) -> g.Report.limit <> None)
                h.Report.gate
            in
            Alcotest.(check bool) (name ^ ": has limited rows") true
              (limited <> []);
            let on_row m f =
              map_gate
                (List.map (fun r -> if gate_metric r = m then f r else r))
                doc
            in
            let some_limited = (List.hd limited).Report.metric in
            rejected "non-finite limit"
              (on_row some_limited
                 (set_member "limit" (Obs_json.Float infinity)));
            rejected "non-numeric limit"
              (on_row some_limited (set_member "limit" (Obs_json.Str "0")));
            rejected "limit on an info row"
              (on_row Report.wall_metric
                 (add_member "limit" (Obs_json.Float 1e9)));
            List.iter
              (fun m ->
                rejected
                  ("acceptance row " ^ m ^ " unlimited")
                  (on_row m (drop_member "limit")))
              (Report.acceptance h.Report.kind ~experiment:h.Report.experiment);
            (* Every limited row one step past its limit: bench-check
               rejects the document and names the row. *)
            List.iter
              (fun (g : Report.gate) ->
                let limit = Option.get g.Report.limit in
                let past =
                  if g.Report.better = Report.Higher then limit -. 1.0
                  else limit +. 1.0
                in
                match
                  Campaign_table.check_doc
                    (set_gate_value g.Report.metric past doc)
                with
                | Ok _ ->
                  Alcotest.failf "%s: %s = %g accepted" name g.Report.metric
                    past
                | Error e ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s past its limit named" name
                       g.Report.metric)
                    true
                    (contains e g.Report.metric))
              limited;
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
                             doc))))
              gate)
          (Lazy.force baseline_docs);
        (* Documents the per-kind validators once accepted: the gate
           showed violations their re-parsed members did not. *)
        List.iter
          (fun (prefix, rows) ->
            let doc = List.assoc prefix (Lazy.force baseline_docs) in
            let bad =
              List.fold_left
                (fun d (m, v) -> set_gate_value m v d)
                doc rows
            in
            match Campaign_table.check_doc bad with
            | Ok _ -> Alcotest.failf "tampered %s accepted" prefix
            | Error e ->
              List.iter
                (fun (m, _) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "tampered %s: %s named" prefix m)
                    true (contains e m))
                rows)
          (let violations =
             [ ("safety violations", 3.0); ("gating liveness violations", 2.0) ]
           in
           [ ("FAULTS", violations); ("FAULTS_LINK", violations);
             ("BENCH_SVC", [ ("missed requests", 4.0) ]);
             ("EPOCH", [ ("safety violations", 4.0) ]) ]);
        (* A bench report's acceptance rows are its experiment's: with a
           row's limit deleted, its broken value would pass the limit
           check, so the envelope check must miss the limit. *)
        let unlimited m v doc =
          map_gate
            (List.map (fun r ->
                 if gate_metric r = m then
                   drop_member "limit" (set_member "value" (Obs_json.Float v) r)
                 else r))
            doc
        in
        let quick_num =
          Bench_out.document ~id:"NUM" ~wall:0.0
            ~gate:
              (Bench_num.dleq_gate ~quick:true
                 [ (1, 160.0); (2, 110.0); (4, 80.0); (8, 60.0); (16, 55.0) ])
            ~config:(Obs_json.Obj [ ("quick", Obs_json.Bool true) ])
            (Obs.create ())
        in
        (match Campaign_table.check_doc quick_num with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "quick NUM rejected: %s" e);
        (* A paper experiment's report with every acceptance row limited. *)
        let claims id =
          let doc =
            Bench_out.document ~id ~wall:0.0
              ~gate:
                (List.map
                   (fun m -> Report.must Report.Lower m ~limit:0.0 0.0)
                   (Report.acceptance Report.Bench ~experiment:id))
              (Obs.create ())
          in
          (match Campaign_table.check_doc doc with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s claims rejected: %s" id e);
          doc
        in
        List.iter
          (fun (what, doc, m, v) ->
            match Campaign_table.check_doc (unlimited m v doc) with
            | Ok _ -> Alcotest.failf "%s accepted" what
            | Error e ->
              Alcotest.(check bool) (what ^ ": " ^ m ^ " named") true
                (contains e m))
          ([ ( "TPUT, invariant row unlimited",
               List.assoc "BENCH_TPUT" (Lazy.force baseline_docs),
               "tput invariant breaks", 3.0 );
             ( "quick NUM, speedup row unlimited", quick_num,
               "dleq batch-8 speedup", 1.0 ) ]
          @ List.map
              (fun (id, m) -> (id ^ ", claim row unlimited", claims id, m, 1.0))
              [ ("F1", "pbft attack live seeds");
                ("F2", "equivocated payload delivered");
                ("E1", "maximal sets live and safe");
                ("E2", "7-server pattern corruptible at t=5");
                ("G1", "structures live and safe");
                ("R1", "n=4 mean rounds");
                ("R2", "total-order violations");
                ("M1", "n=4 instances completed");
                ("M2", "compressed below vector bytes");
                ("O1", "pbft live under leader delay");
                ("O2", "sequencer crash recovered");
                ("S1", "certificate issued");
                ("S2", "confidential leak") ]));
    Alcotest.test_case "DLEQ batch rows keep the 3x gate; quick runs relax it"
      `Quick (fun () ->
        let check ~quick per_share =
          Campaign_table.check_doc
            (Bench_out.document ~id:"NUM" ~wall:0.0
               ~gate:(Bench_num.dleq_gate ~quick per_share)
               (Obs.create ()))
        in
        let rejects what ~quick per_share row =
          match check ~quick per_share with
          | Ok _ -> Alcotest.failf "%s accepted" what
          | Error e ->
            Alcotest.(check bool) (what ^ " names the row") true
              (contains e row)
        in
        let accepts what ~quick per_share =
          match check ~quick per_share with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s rejected: %s" what e
        in
        (* 2.58x at batch 8: below the full-run limit, above the quick one *)
        let slow =
          [ (1, 156.2); (2, 110.0); (4, 80.0); (8, 60.5); (16, 55.0) ]
        in
        rejects "full run at 2.58x" ~quick:false slow "dleq batch-8 speedup";
        accepts "quick run at 2.58x" ~quick:true slow;
        accepts "full run at 3.2x" ~quick:false
          [ (1, 160.0); (2, 110.0); (4, 80.0); (8, 50.0); (16, 45.0) ];
        (* per-share cost rising 40% from batch 1 to 2 *)
        let rising =
          [ (1, 100.0); (2, 140.0); (4, 40.0); (8, 30.0); (16, 20.0) ]
        in
        rejects "full run, cost rising 1.4x" ~quick:false rising
          "dleq per-share cost rise";
        accepts "quick run, cost rising 1.4x" ~quick:true rising;
        match
          Campaign_table.check_doc
            (Bench_out.document ~id:"NUM" ~wall:0.0 (Obs.create ()))
        with
        | Ok _ -> Alcotest.fail "a NUM report without its DLEQ rows accepted"
        | Error e ->
          Alcotest.(check bool) "the missing DLEQ row named" true
            (contains e "dleq batch-8 speedup"));
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
            (Option.bind (Obs_json.member "per_run" base) Obs_json.to_list)
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
               base [ "per_run" ])
        in
        match Compare.compare_docs ~baseline:base ~candidate with
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
              Bench_out.document ~id:"DIR" ~wall:0.0 (Obs.create ()))
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
          match Compare.compare_docs ~baseline:base ~candidate with
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

(* The one ABC run path of the campaign, the bench and the CLI: deploy
   and submit, crash the rest, run, check. *)
let workload_tests =
  let keyring =
    Keyring.deal ~rsa_bits:192 ~seed:42 (AS.threshold ~n:4 ~t:1)
  in
  let run ~crashed =
    let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed:5 () in
    let deliveries = ref 0 in
    let honest = Pset.diff (Pset.full 4) crashed in
    let w =
      Campaign.abc_workload ~sim ~keyring ~tag:"workload" ~honest
        ~on_deliver:(fun _ _ -> incr deliveries)
        [ "a"; "b"; "c" ]
    in
    Pset.iter (Sim.crash sim) crashed;
    let stall = Sweep.run_sim sim ~max_steps:200_000 ~until:w.finished in
    (w, w.check () @ stall, !deliveries)
  in
  [ Alcotest.test_case "abc workload: the honest parties order every payload"
      `Quick (fun () ->
        let w, violations, deliveries = run ~crashed:(Pset.singleton 3) in
        Alcotest.(check int) "no violation" 0 (List.length violations);
        Alcotest.(check bool) "finished" true (w.finished ());
        Alcotest.(check int) "one callback per delivery" 9 deliveries;
        List.iter
          (fun p ->
            Alcotest.(check (list string))
              (Printf.sprintf "party %d's order is party 0's" p)
              w.logs.(0) w.logs.(p))
          [ 1; 2 ]);
    Alcotest.test_case
      "abc workload: a crashed qualified set costs liveness, not safety"
      `Quick (fun () ->
        let w, violations, _ = run ~crashed:(Pset.of_list [ 0; 1 ]) in
        Alcotest.(check bool) "not finished" false (w.finished ());
        Alcotest.(check int) "no safety violation" 0
          (Oracle.count_safety violations);
        Alcotest.(check bool) "liveness violations" true
          (Oracle.count_liveness violations > 0)) ]

(* ---------------- one report layout ---------------------------------- *)

(* Every artifact carries exactly the fixed top-level members, a
   campaign all of them, and a campaign's per-run rows list every
   violation its sweep found. *)
let layout_tests =
  let baseline prefix = List.assoc prefix (Lazy.force baseline_docs) in
  let campaigns = [ "FAULTS"; "FAULTS_LINK"; "RECOV"; "EPOCH"; "BENCH_SVC" ] in
  let rejects what doc needle =
    match Campaign_table.check_doc doc with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S named (%s)" what needle e)
        true (contains e needle)
  in
  let accepts what doc =
    match Campaign_table.check_doc doc with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  let get k conv row =
    match Option.bind (Obs_json.member k row) conv with
    | Some v -> v
    | None -> Alcotest.failf "no %S" k
  in
  [ Alcotest.test_case "a report with an extra top-level member is rejected"
      `Quick (fun () ->
        let num =
          Bench_out.document ~id:"NUM" ~wall:0.0
            ~gate:
              (Bench_num.dleq_gate ~quick:true
                 [ (1, 160.0); (2, 110.0); (4, 80.0); (8, 60.0); (16, 55.0) ])
            ~config:(Obs_json.Obj [ ("quick", Obs_json.Bool true) ])
            (Obs.create ())
        in
        accepts "NUM" num;
        List.iter (fun p -> accepts p (baseline p)) ("BENCH_TPUT" :: campaigns);
        (* members the faults and bench reports carried before they had
           one layout *)
        let empty = Obs_json.Obj [] and records = Obs_json.Arr [] in
        rejects "FAULTS with worst"
          (add_member "worst" empty (baseline "FAULTS"))
          "worst";
        rejects "TPUT with crypto_ops"
          (add_member "crypto_ops" empty (baseline "BENCH_TPUT"))
          "crypto_ops";
        rejects "NUM with crypto_ops" (add_member "crypto_ops" empty num)
          "crypto_ops";
        rejects "a bench report with anomalies"
          (add_member "anomalies" (Obs_json.Obj [ ("records", records) ]) num)
          "anomalies";
        rejects "anomalies with counts"
          (add_member "anomalies"
             (Obs_json.Obj [ ("counts", empty); ("records", records) ])
             (baseline "RECOV"))
          "anomalies");
    Alcotest.test_case "a campaign report without config or per_run is rejected"
      `Quick (fun () ->
        List.iter
          (fun prefix ->
            let doc = baseline prefix in
            List.iter
              (fun k ->
                rejects (prefix ^ " without " ^ k) (drop_member k doc) k)
              [ "config"; "per_run"; "runs"; "anomalies" ];
            rejects
              (prefix ^ " without runs and per_run")
              (drop_member "runs" (drop_member "per_run" doc))
              "runs")
          campaigns;
        rejects "TPUT per_run without runs"
          (drop_member "runs" (baseline "BENCH_TPUT"))
          "runs");
    Alcotest.test_case "10-seed faults drop cells: per_run lists every violation"
      `Quick (fun () ->
        let c =
          Support.only
            (fun (_, (policy : Campaign.policy_spec), _) ->
              policy.p_name = "drop")
            (faults ~seeds:10 2)
        in
        let doc = Sweep.to_json ~id:"t" ~wall:0.0 (Sweep.sweep c) in
        accepts "the sweep's report" doc;
        let gate =
          match Report.header doc with
          | Ok h -> h.Report.gate
          | Error e -> Alcotest.failf "header: %s" e
        in
        let row m =
          match List.find_opt (fun (g : Report.gate) -> g.metric = m) gate with
          | Some g -> int_of_float g.Report.value
          | None -> Alcotest.failf "no gate row %S" m
        in
        let listed =
          List.concat_map
            (fun r ->
              let vs = get "violations" Obs_json.to_list r in
              Alcotest.(check int) "a row's counts sum to its list"
                (get "safety" Obs_json.to_int r
                + get "liveness" Obs_json.to_int r)
                (List.length vs);
              vs)
            (get "per_run" Obs_json.to_list doc)
        in
        let total = row "safety violations" + row "liveness violations" in
        Alcotest.(check int) "every violation listed" total
          (List.length listed);
        Alcotest.(check bool)
          (Printf.sprintf "more than 50 (%d)" total)
          true (total > 50)) ]

let suite =
  ( "faults",
    chaos_tests @ partition_tests @ drop_path_tests @ oracle_tests
    @ byzantine_tests @ campaign_tests @ recovery_tests
    @ svc_campaign_tests @ table_tests @ workload_tests )

let layout_suite = ("report", layout_tests)
