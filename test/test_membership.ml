(* Rampart-lite tests: the dynamic-membership baseline works when
   timeouts are accurate (benign network, real crashes) and — the point
   of the paper's Figure 1 row — loses *safety* when the scheduling
   adversary shrinks the view until a corrupted server dominates it. *)

let tests =
  [ Alcotest.test_case "benign network: ordered delivery" `Quick (fun () ->
        let sim = Sim.create ~policy:Sim.Latency_order ~n:4 ~seed:1 () in
        let nodes, logs = Baseline_stack.deploy_membership ~sim () in
        Membership_abc.submit nodes.(1) "m1";
        Membership_abc.submit nodes.(2) "m2";
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun l -> List.length l >= 2) logs);
        Array.iter
          (fun l ->
            Alcotest.(check (list string)) "same order" (List.rev logs.(0))
              (List.rev l))
          logs;
        Array.iter
          (fun node ->
            Alcotest.(check int) "view stable" 0
              (Membership_abc.current_view node))
          nodes);
    Alcotest.test_case "crashed member is evicted, service continues" `Quick
      (fun () ->
        let sim = Sim.create ~policy:Sim.Latency_order ~n:4 ~seed:2 () in
        let nodes, logs = Baseline_stack.deploy_membership ~sim () in
        (* crash a non-sequencer member *)
        Sim.crash sim 2;
        Membership_abc.submit nodes.(1) "still-works";
        let honest = [ 0; 1; 3 ] in
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> logs.(i) <> []) honest);
        List.iter
          (fun i ->
            Alcotest.(check (list string)) "delivered" [ "still-works" ] logs.(i))
          honest);
    Alcotest.test_case "crashed sequencer is evicted, successor takes over"
      `Quick (fun () ->
        let sim = Sim.create ~policy:Sim.Latency_order ~n:4 ~seed:3 () in
        let nodes, logs = Baseline_stack.deploy_membership ~sim () in
        Sim.crash sim 0;
        Membership_abc.submit nodes.(1) "after-failover";
        let honest = [ 1; 2; 3 ] in
        Sim.run sim
          ~until:(fun () -> List.for_all (fun i -> logs.(i) <> []) honest);
        List.iter
          (fun i ->
            Alcotest.(check (list string)) "delivered" [ "after-failover" ]
              logs.(i);
            Alcotest.(check bool) "membership shrank" true
              (Pset.card (Membership_abc.members nodes.(i)) < 4))
          honest);
    Alcotest.test_case
      "delay adversary shrinks the view until safety is violated" `Quick
      (fun () ->
        (* The Figure 1 claim for Rampart: the attacker delays honest
           servers "just long enough until corrupted servers hold the
           majority in the group" (Baseline_stack.rampart_attack, the
           same attacker bench F2 runs).  The view shrinks to {1, 2};
           the Byzantine sequencer then equivocates and honest member 2
           delivers a payload that no other honest member will ever
           deliver at that position — a safety violation. *)
        let sim =
          Sim.create ~policy:(Sim.Delay_victims (Pset.of_list [ 0; 3 ])) ~n:4
            ~seed:4 ()
        in
        let nodes, logs =
          Baseline_stack.deploy_membership ~sim ~timeout:300.0 ()
        in
        Baseline_stack.rampart_attack ~sim nodes;
        Membership_abc.submit nodes.(2) "victim-payload";
        (try Sim.run sim ~max_steps:8_000 with Sim.Out_of_steps _ -> ());
        Alcotest.(check bool) "view shrank to <= 2 members" true
          (Pset.card (Membership_abc.members nodes.(2)) <= 2);
        Alcotest.(check bool) "equivocation was delivered" true
          (List.mem "evil-A" logs.(2));
        Alcotest.(check bool) "no other honest member has it" true
          (List.for_all (fun i -> not (List.mem "evil-A" logs.(i))) [ 0; 3 ]))
  ]

let suite = ("membership", tests)
