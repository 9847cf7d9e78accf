(* Throughput-layer regression harness: payload batching and round
   pipelining in the ABC hot path (PR 4).

   The batching/pipelining policy must never weaken the protocol: the
   (batch=1, window=1) default is payload-identical to the historical
   unbatched behaviour, an aggressive (batch=8, window=4) policy
   delivers the same payload set in a total order with strictly fewer
   agreement rounds, and a full pipeline window back-pressures instead
   of exhausting the simulator's step budget. *)

module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1
let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

(* Deploy an ABC instance per party, broadcast [payloads] round-robin
   (or all at party [at]), run until all parties delivered, and return
   the per-party logs in delivery order plus the nodes and sim. *)
let run_abc ?policy ?obs ?at ~seed ~payloads () =
  let keyring = Lazy.force kr41 in
  let sim = Sim.create ?obs ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4 ~seed () in
  let logs = Array.make 4 [] in
  let nodes =
    Stack.deploy_abc ?policy ~sim ~keyring ~tag:"tput"
      ~deliver:(fun me p -> logs.(me) <- p :: logs.(me))
      ()
  in
  List.iteri
    (fun i p -> Abc.broadcast nodes.(Option.value at ~default:(i mod 4)) p)
    payloads;
  let want = List.length (List.sort_uniq compare payloads) in
  Sim.run sim
    ~until:(fun () -> Array.for_all (fun l -> List.length l >= want) logs);
  (Array.map List.rev logs, nodes, sim)

let payloads_n k = List.init k (fun i -> Printf.sprintf "p-%02d" i)

let fuller = { Abc.default_policy with max_batch_msgs = 8; window = 2 }

(* Party 0 of an n=4 deployment under [fuller], with the sim never run so
   nothing but local calls moves it: two one-payload rounds fill the
   window, [held] waits behind it, and a checkpoint delivering the two
   makes round 2 the head, opened with everything [held] fits. *)
let head_round_with ?obs held =
  let keyring = Lazy.force kr41 in
  let sim =
    Sim.create ?obs ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4
      ~seed:3 ()
  in
  let nodes =
    Stack.deploy_abc ~policy:fuller ~sim ~keyring ~tag:"fuller"
      ~deliver:(fun _ _ -> ())
      ()
  in
  let node = nodes.(0) in
  List.iter (Abc.broadcast node) [ "a0"; "a1" ];
  Alcotest.(check int) "a0 and a1 fill the window" 2 (Abc.in_flight node);
  List.iter (Abc.broadcast node) held;
  Abc.install_checkpoint node ~round:2 ~digests:[] ~suffix:[ "a0"; "a1" ];
  Alcotest.(check int) "round 2 is the head" 2 (Abc.current_round node);
  Alcotest.(check int) "the head round is open" 1 (Abc.in_flight node);
  node

let abc_backpressure obs =
  match
    Obs_registry.find (Obs.snapshot obs)
      ~labels:[ ("layer", "abc") ]
      "abc_backpressure"
  with
  | Some (Obs_registry.Vcounter c) -> c
  | _ -> 0

let tests =
  [ Alcotest.test_case "policy validation rejects non-positive fields"
      `Quick (fun () ->
        let keyring = Lazy.force kr41 in
        let sim = Sim.create ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4 ~seed:1 () in
        let bad policy =
          match
            Stack.deploy_abc ~policy ~sim ~keyring ~tag:"bad"
              ~deliver:(fun _ _ -> ())
              ()
          with
          | _ -> Alcotest.fail "invalid policy accepted"
          | exception Invalid_argument _ -> ()
        in
        bad { Abc.default_policy with max_batch_msgs = 0 };
        bad { Abc.default_policy with max_batch_bytes = 0 };
        bad { Abc.default_policy with window = 0 });
    Alcotest.test_case
      "explicit (batch=1, window=1) is payload-identical to the default"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let payloads = payloads_n 6 in
            let reference, _, _ = run_abc ~seed ~payloads () in
            let explicit, _, _ =
              run_abc
                ~policy:
                  { Abc.default_policy with max_batch_msgs = 1; window = 1 }
                ~seed ~payloads ()
            in
            Array.iteri
              (fun i log ->
                Alcotest.(check (list string))
                  (Printf.sprintf "party %d log (seed %d)" i seed)
                  log explicit.(i))
              reference)
          [ 7; 8; 9 ]);
    Alcotest.test_case
      "(batch=8, window=4): same payload set, total order, fewer rounds"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let payloads = payloads_n 12 in
            let _plain_logs, plain_nodes, _ = run_abc ~seed ~payloads () in
            let batched_logs, batched_nodes, _ =
              run_abc
                ~policy:
                  { Abc.default_policy with max_batch_msgs = 8; window = 4 }
                ~seed ~payloads ()
            in
            let honest = Pset.of_list [ 0; 1; 2; 3 ] in
            List.iter
              (fun (v : Oracle.violation) ->
                Alcotest.failf "total-order violation (seed %d): %s" seed
                  (Oracle.violation_to_string v))
              (Oracle.total_order ~honest batched_logs);
            Array.iteri
              (fun i log ->
                Alcotest.(check (list string))
                  (Printf.sprintf "party %d delivered set (seed %d)" i seed)
                  (List.sort compare payloads)
                  (List.sort compare log))
              batched_logs;
            let max_round nodes =
              Array.fold_left
                (fun acc n -> max acc (Abc.current_round n))
                0 nodes
            in
            Alcotest.(check bool)
              (Printf.sprintf "batched rounds %d < unbatched rounds %d"
                 (max_round batched_nodes) (max_round plain_nodes))
              true
              (max_round batched_nodes < max_round plain_nodes))
          [ 30; 31 ]);
    Alcotest.test_case
      "full window back-pressures instead of running out of steps" `Quick
      (fun () ->
        (* Crash two of four servers: the big quorum is unreachable, so
           no round can complete.  The two survivors must open exactly
           [window] rounds, park the remaining payloads in the backlog,
           and go quiescent — the old behaviour was to spin until
           [Sim.Out_of_steps]. *)
        let keyring = Lazy.force kr41 in
        let obs = Obs.create () in
        let sim = Sim.create ~obs ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4 ~seed:5 () in
        let nodes =
          Stack.deploy_abc
            ~policy:{ Abc.default_policy with max_batch_msgs = 1; window = 2 }
            ~sim ~keyring ~tag:"bp"
            ~deliver:(fun _ _ -> ())
            ()
        in
        Sim.crash sim 2;
        Sim.crash sim 3;
        List.iter (fun p -> Abc.broadcast nodes.(0) p) (payloads_n 10);
        (* quiescence, not Out_of_steps: the exception would fail the test *)
        Sim.run sim;
        Alcotest.(check int) "window filled" 2 (Abc.in_flight nodes.(0));
        Alcotest.(check int) "backlog parked" 8 (Abc.backlog nodes.(0));
        let bp = abc_backpressure obs in
        Alcotest.(check bool)
          (Printf.sprintf "abc_backpressure counted (%d)" bp)
          true (bp > 0);
        (* A payload held for a fuller batch, with the window not full,
           counts too. *)
        let obs = Obs.create () in
        let node = head_round_with ~obs [ "b0"; "b1"; "b2" ] in
        let before = abc_backpressure obs in
        Abc.broadcast node "c0";
        Alcotest.(check int) "window not full" 1 (Abc.in_flight node);
        Alcotest.(check int) "held payload counted" (before + 1)
          (abc_backpressure obs);
        Alcotest.(check string) "the stall probe shows the backlog"
          "abc in-flight rounds (round:proposals, unproposed backlog) \
           p0[r2:0 backlog 1]"
          (Stack.abc_stall_summary [| node |]));
    Alcotest.test_case
      "a round behind the head opens only with a batch as large as the \
       round ahead"
      `Quick (fun () ->
        let node = head_round_with [ "b0"; "b1"; "b2" ] in
        Alcotest.(check int) "the head round carries all three" 0
          (Abc.backlog node);
        Abc.broadcast node "c0";
        Alcotest.(check int) "one payload does not open round 3" 1
          (Abc.in_flight node);
        Alcotest.(check int) "c0 held" 1 (Abc.backlog node);
        Abc.broadcast node "c1";
        Alcotest.(check int) "two do not either" 1 (Abc.in_flight node);
        Abc.broadcast node "c2";
        Alcotest.(check int) "three open round 3" 2 (Abc.in_flight node);
        Alcotest.(check int) "round 3 carries all three" 0 (Abc.backlog node));
    Alcotest.test_case
      "a burst's tail rides the next head round and every payload delivers"
      `Quick (fun () ->
        let burst = payloads_n 9 in
        let node = head_round_with burst in
        Alcotest.(check int) "the head round packs a full batch" 1
          (Abc.backlog node);
        Alcotest.(check int) "the tail does not open round 3" 1
          (Abc.in_flight node);
        (* Batches pack in digest order: the head took the eight
           smallest. *)
        let sorted =
          List.sort
            (fun a b -> compare (Sha256.digest a) (Sha256.digest b))
            burst
        in
        let head = List.filteri (fun i _ -> i < 8) sorted in
        Abc.install_checkpoint node ~round:3 ~digests:[] ~suffix:head;
        Alcotest.(check (list string)) "the tail is all that is left"
          [ List.nth sorted 8 ] (Abc.pending node);
        Alcotest.(check int) "round 3 is the head and carries the tail" 0
          (Abc.backlog node);
        Alcotest.(check int) "only the head round is in flight" 1
          (Abc.in_flight node);
        (* Live: the same burst at one server of a running deployment
           delivers everywhere, in one order, within the step budget. *)
        let logs, nodes, _ =
          run_abc ~policy:fuller ~at:0 ~seed:4 ~payloads:burst ()
        in
        Array.iteri
          (fun i log ->
            Alcotest.(check (list string))
              (Printf.sprintf "party %d order matches party 0" i)
              logs.(0) log;
            Alcotest.(check (list string))
              (Printf.sprintf "party %d delivered set" i)
              (List.sort compare burst) (List.sort compare log);
            Alcotest.(check int)
              (Printf.sprintf "party %d holds nothing back" i)
              0
              (Abc.backlog nodes.(i)))
          logs);
    Alcotest.test_case "stall probe feeds Out_of_steps diagnostics" `Quick
      (fun () ->
        let keyring = Lazy.force kr41 in
        let sim = Sim.create ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4 ~seed:6 () in
        let nodes =
          Stack.deploy_abc
            ~policy:{ Abc.default_policy with max_batch_msgs = 4; window = 2 }
            ~sim ~keyring ~tag:"probe"
            ~deliver:(fun _ _ -> ())
            ()
        in
        List.iter (fun p -> Abc.broadcast nodes.(0) p) (payloads_n 8);
        (match Sim.run sim ~max_steps:120 with
        | () -> Alcotest.fail "expected Out_of_steps mid-protocol"
        | exception Sim.Out_of_steps { detail; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "detail names the abc layer: %S" detail)
            true
            (String.length detail >= 3 && String.sub detail 0 3 = "abc")));
    Alcotest.test_case "scabc delivers everything under a batched policy"
      `Quick (fun () ->
        let keyring = Lazy.force kr41 in
        let sim =
          Sim.create ~size:(Link.frame_size (Scabc.msg_size keyring)) ~n:4 ~seed:11 ()
        in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_scabc
            ~policy:{ Abc.default_policy with max_batch_msgs = 4; window = 2 }
            ~sim ~keyring ~tag:"sc-tput"
            ~deliver:(fun me ~label:_ p -> logs.(me) <- p :: logs.(me))
            ()
        in
        let payloads = payloads_n 6 in
        let rng = Prng.create ~seed:79 in
        List.iteri
          (fun i p ->
            let ct =
              Scabc.encrypt_request keyring rng
                ~label:(Printf.sprintf "c%d" i) p
            in
            Scabc.broadcast nodes.(i mod 4) ct)
          payloads;
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun l -> List.length l >= 6) logs);
        Array.iteri
          (fun i log ->
            Alcotest.(check (list string))
              (Printf.sprintf "party %d order matches party 0" i)
              (List.rev logs.(0)) (List.rev log);
            Alcotest.(check (list string))
              (Printf.sprintf "party %d delivered set" i)
              (List.sort compare payloads)
              (List.sort compare log))
          logs);
    Alcotest.test_case
      "optimistic fallback inherits the batched policy and delivers" `Quick
      (fun () ->
        let keyring = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:12 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy ~sim ~keyring
            ~make:(fun me io ->
              Optimistic_abc.create ~io ~tag:"opt-tput" ~sequencer:0
                ~patience:60
                ~timeout:800.0
                ~abc_policy:
                  { Abc.default_policy with max_batch_msgs = 4; window = 2 }
                ~deliver:(fun p -> logs.(me) <- p :: logs.(me))
                ())
            ~handle:Optimistic_abc.handle ()
        in
        Sim.crash sim 0;
        let payloads = payloads_n 4 in
        List.iteri
          (fun i p -> Optimistic_abc.broadcast nodes.(1 + (i mod 3)) p)
          payloads;
        let honest = [ 1; 2; 3 ] in
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> List.length logs.(i) >= 4) honest);
        Sim.run sim;
        List.iter
          (fun i ->
            Alcotest.(check bool) "switched to fallback" true
              (Optimistic_abc.mode nodes.(i) = Optimistic_abc.Fallback);
            Alcotest.(check (list string))
              (Printf.sprintf "party %d order matches party 1" i)
              (List.rev logs.(1)) (List.rev logs.(i));
            Alcotest.(check (list string))
              (Printf.sprintf "party %d delivered set" i)
              (List.sort compare payloads)
              (List.sort compare logs.(i)))
          honest)
  ]

let suite = ("throughput", tests)
