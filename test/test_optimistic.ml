(* Optimistic atomic broadcast tests: fast-path ordering and cost, the
   complaint-triggered switch when the sequencer fails, and total-order
   safety across the fast-path/fallback boundary. *)

module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1
let kr = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

let deploy ~sim ?(patience = 120) () =
  let keyring = Lazy.force kr in
  let logs = Array.make 4 [] in
  let nodes =
    Stack.deploy ~sim ~keyring
      ~make:(fun _ io ->
        Optimistic_abc.create ~io ~tag:"opt" ~patience
          ~timeout:800.0
          ~deliver:(fun p ->
            logs.(io.Proto_io.me) <- p :: logs.(io.Proto_io.me))
          ())
      ~handle:Optimistic_abc.handle ()
  in
  (nodes, logs)

let check_same_order logs honest =
  match honest with
  | [] -> ()
  | h :: rest ->
    List.iter
      (fun i ->
        Alcotest.(check (list string)) "same order" (List.rev logs.(h))
          (List.rev logs.(i)))
      rest

let tests =
  [ Alcotest.test_case "fast path: total order without agreement" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let sim = Sim.create ~n:4 ~seed () in
            let nodes, logs = deploy ~sim () in
            Optimistic_abc.broadcast nodes.(1) "fast-1";
            Optimistic_abc.broadcast nodes.(2) "fast-2";
            Optimistic_abc.broadcast nodes.(3) "fast-3";
            Sim.run sim
              ~until:(fun () -> Array.for_all (fun l -> List.length l >= 3) logs);
            check_same_order logs [ 0; 1; 2; 3 ];
            Array.iteri
              (fun i node ->
                Alcotest.(check bool)
                  (Printf.sprintf "party %d stayed on fast path" i)
                  true
                  (Optimistic_abc.mode node = Optimistic_abc.Fast);
                Alcotest.(check int) "all via fast path" 3
                  (Optimistic_abc.fast_delivered_count node))
              nodes)
          [ 11; 12; 13 ]);
    Alcotest.test_case "fast path is cheaper than full abc" `Quick (fun () ->
        let keyring = Lazy.force kr in
        let opt_msgs =
          let sim =
            Sim.create
              ~size:(Link.frame_size (Optimistic_abc.msg_size keyring))
              ~n:4 ~seed:21 ()
          in
          let nodes, logs = deploy ~sim () in
          Optimistic_abc.broadcast nodes.(1) "payload";
          Sim.run sim
            ~until:(fun () -> Array.for_all (fun l -> List.length l >= 1) logs);
          (Sim.metrics sim).Metrics.bytes_sent
        in
        let abc_msgs =
          let sim =
            Sim.create ~size:(Link.frame_size (Abc.msg_size keyring)) ~n:4
              ~seed:21 ()
          in
          let logs = Array.make 4 [] in
          let nodes =
            Stack.deploy_abc ~sim ~keyring ~tag:"cmp"
              ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
          in
          Abc.broadcast nodes.(1) "payload";
          Sim.run sim
            ~until:(fun () -> Array.for_all (fun l -> List.length l >= 1) logs);
          (Sim.metrics sim).Metrics.bytes_sent
        in
        Alcotest.(check bool)
          (Printf.sprintf "optimistic %d B < abc %d B" opt_msgs abc_msgs)
          true
          (opt_msgs * 3 < abc_msgs));
    Alcotest.test_case "crashed sequencer: switch to fallback and deliver"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let sim = Sim.create ~n:4 ~seed () in
            let nodes, logs = deploy ~sim ~patience:60 () in
            Sim.crash sim 0;
            Optimistic_abc.broadcast nodes.(1) "survive-1";
            Optimistic_abc.broadcast nodes.(2) "survive-2";
            let honest = [ 1; 2; 3 ] in
            Sim.run sim
              ~until:(fun () ->
                List.for_all (fun i -> List.length logs.(i) >= 2) honest);
            (* let the recovery machinery finish before checking modes *)
            Sim.run sim;
            check_same_order logs honest;
            List.iter
              (fun i ->
                Alcotest.(check bool) "switched" true
                  (Optimistic_abc.mode nodes.(i) = Optimistic_abc.Fallback);
                Alcotest.(check (list string)) "delivered both"
                  (List.sort compare [ "survive-1"; "survive-2" ])
                  (List.sort compare logs.(i)))
              honest)
          [ 31; 32 ]);
    Alcotest.test_case "mid-stream sequencer crash keeps prefix consistent"
      `Quick (fun () ->
        (* deliver some payloads on the fast path, then kill the
           sequencer; the remaining payloads go through the fallback and
           the total order stays identical everywhere *)
        let sim = Sim.create ~n:4 ~seed:41 () in
        let nodes, logs = deploy ~sim ~patience:60 () in
        Optimistic_abc.broadcast nodes.(1) "early-1";
        Optimistic_abc.broadcast nodes.(2) "early-2";
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun l -> List.length l >= 2) logs);
        Array.iteri
          (fun i node ->
            ignore i;
            Alcotest.(check bool) "still fast" true
              (Optimistic_abc.mode node = Optimistic_abc.Fast))
          nodes;
        Sim.crash sim 0;
        Optimistic_abc.broadcast nodes.(3) "late-1";
        Optimistic_abc.broadcast nodes.(1) "late-2";
        let honest = [ 1; 2; 3 ] in
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> List.length logs.(i) >= 4) honest);
        Sim.run sim;
        check_same_order logs honest;
        List.iter
          (fun i ->
            (* the fast-path prefix is a prefix of the final order *)
            let final = List.rev logs.(i) in
            Alcotest.(check (list string)) "prefix preserved"
              [ List.nth final 0; List.nth final 1 ]
              (List.filteri (fun k _ -> k < 2) final);
            Alcotest.(check (list string)) "everything delivered"
              (List.sort compare [ "early-1"; "early-2"; "late-1"; "late-2" ])
              (List.sort compare final))
          honest)
  ]

let suite = ("optimistic", tests)
