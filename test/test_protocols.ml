(* End-to-end protocol tests on the adversarial network simulator:
   reliable broadcast, consistent broadcast, binary agreement (ABBA),
   validated multi-valued agreement (VBA), atomic broadcast and secure
   causal atomic broadcast — each under random schedules, crash faults
   and concrete Byzantine behaviours. *)

module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1
let th72 = AS.threshold ~n:7 ~t:2

let keyring_cache : (int * int, Keyring.t) Hashtbl.t = Hashtbl.create 4

(* Keyrings are deterministic; cache by (n, variant) to keep suites fast. *)
let keyring ?(variant = 0) structure =
  let key = (AS.n structure * 100, variant) in
  match Hashtbl.find_opt keyring_cache key with
  | Some kr when AS.n kr.Keyring.structure = AS.n structure -> kr
  | Some _ | None ->
    let kr = Keyring.deal ~rsa_bits:192 ~seed:(1000 + variant) structure in
    Hashtbl.replace keyring_cache key kr;
    kr

(* A transport-less environment for checks made outside a deployment. *)
let checker_io ?(me = 0) kr : unit Proto_io.t =
  Proto_io.make ~timer:(fun ~delay:_ _ -> ()) ~me ~keyring:kr
    ~send:(fun _ () -> ()) ~broadcast:ignore ~unsequenced:(fun _ () -> ())
    ~link:None ()

let policies seed : Sim.policy list =
  ignore seed;
  [ Sim.Fifo; Sim.Random_order; Sim.Latency_order ]

(* ---------------- RBC ------------------------------------------------ *)

let run_rbc ~seed ~policy ~crashed () =
  let kr = keyring th41 in
  let sim = Sim.create ~policy ~n:4 ~seed () in
  let outputs = Array.make 4 None in
  let nodes =
    Stack.deploy_rbc ~sim ~keyring:kr ~sender:0 ~deliver:(fun me payload ->
        outputs.(me) <- Some payload) ()
  in
  List.iter (Sim.crash sim) crashed;
  Rbc.broadcast nodes.(0) "hello world";
  Sim.run sim;
  outputs

let rbc_tests =
  [ Alcotest.test_case "rbc: all deliver under every policy" `Quick (fun () ->
        List.iter
          (fun policy ->
            let outputs = run_rbc ~seed:7 ~policy ~crashed:[] () in
            Array.iter
              (fun o ->
                Alcotest.(check (option string)) "delivered" (Some "hello world") o)
              outputs)
          (policies 7));
    Alcotest.test_case "rbc: tolerates one crashed receiver" `Quick (fun () ->
        let outputs = run_rbc ~seed:8 ~policy:Sim.Random_order ~crashed:[ 2 ] () in
        List.iter
          (fun i ->
            Alcotest.(check (option string)) "delivered" (Some "hello world")
              outputs.(i))
          [ 0; 1; 3 ]);
    Alcotest.test_case "rbc: crashed sender delivers nothing" `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:9 () in
        let outputs = Array.make 4 None in
        let _nodes =
          Stack.deploy_rbc ~sim ~keyring:kr ~sender:0 ~deliver:(fun me payload ->
              outputs.(me) <- Some payload) ()
        in
        Sim.crash sim 0;
        Sim.run sim;
        Array.iter
          (fun o -> Alcotest.(check (option string)) "nothing" None o)
          outputs);
    Alcotest.test_case "rbc: equivocating sender cannot split honest parties"
      `Quick (fun () ->
        (* Byzantine sender sends SEND("a") to parties 1,2 and SEND("b")
           to party 3; consistency requires all honest deliver the same
           value (or none). *)
        List.iter
          (fun seed ->
            let kr = keyring th41 in
            let sim = Sim.create ~n:4 ~seed () in
            let outputs = Array.make 4 None in
            let nodes =
              Stack.deploy_rbc ~sim ~keyring:kr ~sender:0
                ~deliver:(fun me payload -> outputs.(me) <- Some payload) ()
            in
            ignore nodes;
            (* replace sender with raw injections *)
            Sim.set_handler sim 0 (fun ~src:_ _ -> ());
            Sim.send sim ~src:0 ~dst:1 (Link.Raw (Rbc.Send "a"));
            Sim.send sim ~src:0 ~dst:2 (Link.Raw (Rbc.Send "a"));
            Sim.send sim ~src:0 ~dst:3 (Link.Raw (Rbc.Send "b"));
            Sim.run sim;
            let delivered =
              List.filter_map (fun i -> outputs.(i)) [ 1; 2; 3 ]
            in
            match delivered with
            | [] -> ()
            | x :: rest ->
              List.iter
                (fun y -> Alcotest.(check string) "consistent" x y)
                rest)
          (List.init 10 (fun i -> 100 + i)));
    Alcotest.test_case "rbc: totality under generalized structure (example1)"
      `Quick (fun () ->
        let s1 = Canonical_structures.example1 () in
        let kr = Keyring.deal ~seed:2001 s1 in
        let sim = Sim.create ~n:9 ~seed:11 () in
        let outputs = Array.make 9 None in
        let nodes =
          Stack.deploy_rbc ~sim ~keyring:kr ~sender:4 ~deliver:(fun me payload ->
              outputs.(me) <- Some payload) ()
        in
        (* crash the whole of class a (a corruptible set) *)
        List.iter (Sim.crash sim) [ 0; 1; 2; 3 ];
        Rbc.broadcast nodes.(4) "multi-class payload";
        Sim.run sim;
        List.iter
          (fun i ->
            Alcotest.(check (option string)) "delivered" (Some "multi-class payload")
              outputs.(i))
          [ 4; 5; 6; 7; 8 ])
  ]

(* ---------------- CBC ------------------------------------------------ *)

let cbc_tests =
  [ Alcotest.test_case "cbc: delivery with certificate" `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:21 () in
        let outputs = Array.make 4 None in
        let nodes =
          Stack.deploy_cbc ~sim ~keyring:kr ~tag:"t1" ~sender:2
            ~deliver:(fun me payload _cert -> outputs.(me) <- Some payload)
            ()
        in
        Cbc.broadcast nodes.(2) "consistent payload";
        Sim.run sim;
        Array.iter
          (fun o ->
            Alcotest.(check (option string)) "delivered" (Some "consistent payload") o)
          outputs);
    Alcotest.test_case "cbc: certificate is transferable" `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:22 () in
        let got = ref None in
        let nodes =
          Stack.deploy_cbc ~sim ~keyring:kr ~tag:"t2" ~sender:0
            ~deliver:(fun me payload cert ->
              if me = 3 then got := Some (payload, cert))
            ()
        in
        Cbc.broadcast nodes.(0) "transfer me";
        Sim.run sim;
        match !got with
        | None -> Alcotest.fail "party 3 did not deliver"
        | Some (payload, cert) ->
          Alcotest.(check bool) "transferred check" true
            (Cbc.check_transferred (checker_io kr) ~tag:"t2" ~sender:0 payload cert);
          Alcotest.(check bool) "wrong tag fails" false
            (Cbc.check_transferred (checker_io kr) ~tag:"t3" ~sender:0 payload cert);
          Alcotest.(check bool) "wrong payload fails" false
            (Cbc.check_transferred (checker_io kr) ~tag:"t2" ~sender:0 "other" cert));
    Alcotest.test_case "cbc: validation predicate blocks endorsement" `Quick
      (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:23 () in
        let outputs = Array.make 4 None in
        let nodes =
          Stack.deploy_cbc ~sim ~keyring:kr ~tag:"t4" ~sender:0
            ~validate:(fun p -> String.length p < 5)
            ~deliver:(fun me payload _ -> outputs.(me) <- Some payload)
            ()
        in
        Cbc.broadcast nodes.(0) "way too long to be valid";
        Sim.run sim;
        Array.iter
          (fun o -> Alcotest.(check (option string)) "blocked" None o)
          outputs);
    Alcotest.test_case "cbc: equivocating sender obtains at most one cert"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let kr = keyring th41 in
            let sim = Sim.create ~n:4 ~seed () in
            let outputs = Array.make 4 None in
            let _nodes =
              Stack.deploy_cbc ~sim ~keyring:kr ~tag:"t5" ~sender:0
                ~deliver:(fun me payload _ -> outputs.(me) <- Some payload)
                ()
            in
            (* Byzantine sender: SEND "x" to 1,2 and "y" to 3; it cannot
               assemble certificates for both, so honest deliveries agree. *)
            Sim.set_handler sim 0 (fun ~src:_ _ -> ());
            Sim.send sim ~src:0 ~dst:1 (Link.Raw (Cbc.Send "x"));
            Sim.send sim ~src:0 ~dst:2 (Link.Raw (Cbc.Send "x"));
            Sim.send sim ~src:0 ~dst:3 (Link.Raw (Cbc.Send "y"));
            Sim.run sim;
            let delivered =
              List.filter_map (fun i -> outputs.(i)) [ 1; 2; 3 ]
            in
            match delivered with
            | [] -> ()
            | x :: rest ->
              List.iter (fun y -> Alcotest.(check string) "unique" x y) rest)
          (List.init 5 (fun i -> 300 + i)))
  ]

(* ---------------- ABBA ----------------------------------------------- *)

let run_abba ~structure ~variant ~seed ~policy ~inputs ~crashed ?byzantine ()
    =
  let n = AS.n structure in
  let kr = keyring ~variant structure in
  let sim = Sim.create ~policy ~n ~seed () in
  let decisions = Array.make n None in
  let nodes =
    Stack.deploy_abba ~sim ~keyring:kr ~tag:(Printf.sprintf "abba-%d" seed)
      ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
  in
  List.iter (Sim.crash sim) crashed;
  (match byzantine with
  | Some (party, behavior) -> Sim.set_handler sim party behavior
  | None -> ());
  Array.iteri
    (fun i node ->
      if (not (List.mem i crashed)) && Some i <> Option.map fst byzantine then
        Abba.propose node inputs.(i))
    nodes;
  Sim.run sim;
  (decisions, nodes)

let check_abba_agreement ~honest decisions inputs =
  let decided = List.filter_map (fun i -> decisions.(i)) honest in
  Alcotest.(check int) "all honest decided" (List.length honest)
    (List.length decided);
  (match decided with
  | [] -> Alcotest.fail "nobody decided"
  | d :: rest ->
    List.iter (fun d' -> Alcotest.(check bool) "agreement" true (d = d')) rest;
    (* validity: the decision is the input of some honest party *)
    Alcotest.(check bool) "validity" true
      (List.exists (fun i -> inputs.(i) = d) honest))

let abba_tests =
  [ Alcotest.test_case "abba: unanimous inputs decide that value" `Quick
      (fun () ->
        List.iter
          (fun (seed, b) ->
            let inputs = Array.make 4 b in
            let decisions, _ =
              run_abba ~structure:th41 ~variant:0 ~seed ~policy:Sim.Random_order
                ~inputs ~crashed:[] ()
            in
            List.iter
              (fun i ->
                Alcotest.(check (option bool)) "decide input" (Some b) decisions.(i))
              [ 0; 1; 2; 3 ])
          [ (41, true); (42, false); (43, true) ]);
    Alcotest.test_case "abba: mixed inputs agree (many seeds/policies)" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun policy ->
                let inputs = [| true; false; true; false |] in
                let decisions, _ =
                  run_abba ~structure:th41 ~variant:0 ~seed ~policy ~inputs
                    ~crashed:[] ()
                in
                check_abba_agreement ~honest:[ 0; 1; 2; 3 ] decisions inputs)
              (policies seed))
          (List.init 8 (fun i -> 500 + i)));
    Alcotest.test_case "abba: tolerates a crashed party" `Quick (fun () ->
        List.iter
          (fun seed ->
            let inputs = [| true; false; false; true |] in
            let decisions, _ =
              run_abba ~structure:th41 ~variant:0 ~seed ~policy:Sim.Random_order
                ~inputs ~crashed:[ 3 ] ()
            in
            check_abba_agreement ~honest:[ 0; 1; 2 ] decisions inputs)
          (List.init 6 (fun i -> 600 + i)));
    Alcotest.test_case "abba: byzantine spammer cannot break agreement" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let inputs = [| true; false; true; false |] in
            let kr = keyring th41 in
            (* the corrupted party floods everyone with junk votes and
               equivocating supports *)
            let spam sim =
             fun ~src:_ (_ : Abba.msg Link.frame) ->
              let share b =
                Keyring.cert_share kr ~party:3
                  (Ro.encode [ "abba-sup"; Printf.sprintf "abba-%d" seed;
                               string_of_bool b ])
              in
              Sim.send sim ~src:3 ~dst:0
                (Link.Raw (Abba.Support (true, share true)));
              Sim.send sim ~src:3 ~dst:1
                (Link.Raw (Abba.Support (false, share false)))
            in
            let n = 4 in
            let sim = Sim.create ~n ~seed () in
            let decisions = Array.make n None in
            let nodes =
              Stack.deploy_abba ~sim ~keyring:kr
                ~tag:(Printf.sprintf "abba-%d" seed)
                ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
            in
            Sim.set_handler sim 3 (spam sim);
            Array.iteri
              (fun i node -> if i < 3 then Abba.propose node inputs.(i))
              nodes;
            Sim.run sim;
            check_abba_agreement ~honest:[ 0; 1; 2 ] decisions inputs)
          (List.init 5 (fun i -> 700 + i)));
    Alcotest.test_case "abba: n=7 t=2 with two crashes" `Quick (fun () ->
        let inputs = [| true; false; true; false; true; false; true |] in
        let decisions, _ =
          run_abba ~structure:th72 ~variant:7 ~seed:801 ~policy:Sim.Random_order
            ~inputs ~crashed:[ 5; 6 ] ()
        in
        check_abba_agreement ~honest:[ 0; 1; 2; 3; 4 ] decisions inputs);
    Alcotest.test_case "abba: generalized structure (example1), class crash"
      `Quick (fun () ->
        let s1 = Canonical_structures.example1 () in
        let inputs = [| true; true; false; false; true; false; true; false; true |] in
        let decisions, _ =
          run_abba ~structure:s1 ~variant:91 ~seed:901 ~policy:Sim.Random_order
            ~inputs ~crashed:[ 0; 1; 2; 3 ] ()
        in
        check_abba_agreement ~honest:[ 4; 5; 6; 7; 8 ] decisions inputs);
    Alcotest.test_case "abba: a decided instance sends nothing" `Quick
      (fun () ->
        (* A decided instance drops its vote tables: safe only because no
           message, whatever it is, makes it send again. *)
        List.iter
          (fun seed ->
            let kr = keyring th41 in
            let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed () in
            let decisions = Array.make 4 None in
            let nodes =
              Stack.deploy_abba ~sim ~keyring:kr
                ~tag:(Printf.sprintf "abba-quiet-%d" seed)
                ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
            in
            let received = ref [] in
            Sim.wrap_handler sim 0 (fun h ~src frame ->
                (match Link.payload frame with
                | Some m -> received := (src, m) :: !received
                | None -> ());
                h ~src frame);
            Array.iteri (fun i node -> Abba.propose node (i mod 2 = 0)) nodes;
            Sim.run sim;
            Alcotest.(check bool) "party 0 decided" true (decisions.(0) <> None);
            Alcotest.(check int) "quiescent" 0 (Sim.pending_count sim);
            List.iter
              (fun (src, m) -> Abba.handle nodes.(0) ~src m)
              (List.rev !received);
            Alcotest.(check bool) "messages replayed" true
              (List.length !received > 10);
            Alcotest.(check int) "nothing sent" 0 (Sim.pending_count sim))
          (List.init 4 (fun i -> 1500 + i)))
  ]

(* ---------------- VBA ------------------------------------------------ *)

let run_vba ~seed ~policy ~crashed ~values ?(validate = fun _ -> true) () =
  let kr = keyring th41 in
  let sim = Sim.create ~policy ~n:4 ~seed () in
  let results = Array.make 4 None in
  let nodes =
    Stack.deploy_vba ~sim ~keyring:kr ~tag:(Printf.sprintf "vba-%d" seed)
      ~validate
      ~on_decide:(fun me ~winner value -> results.(me) <- Some (winner, value))
      ()
  in
  List.iter (Sim.crash sim) crashed;
  Array.iteri
    (fun i node -> if not (List.mem i crashed) then Vba.propose node values.(i))
    nodes;
  Sim.run sim;
  results

let vba_tests =
  [ Alcotest.test_case "vba: agreement on a proposed value" `Quick (fun () ->
        List.iter
          (fun seed ->
            let values = [| "v0"; "v1"; "v2"; "v3" |] in
            let results = run_vba ~seed ~policy:Sim.Random_order ~crashed:[] ~values () in
            let decided = Array.to_list results |> List.filter_map Fun.id in
            Alcotest.(check int) "all decided" 4 (List.length decided);
            match decided with
            | [] -> assert false
            | (w, v) :: rest ->
              List.iter
                (fun (w', v') ->
                  Alcotest.(check int) "same winner" w w';
                  Alcotest.(check string) "same value" v v')
                rest;
              Alcotest.(check string) "value is winner's proposal"
                values.(w) v)
          (List.init 6 (fun i -> 1100 + i)));
    Alcotest.test_case "vba: external validity filters proposals" `Quick
      (fun () ->
        (* only even-length values are valid; corrupted parties 0 and 2
           push invalid proposals through raw CBC sends, which honest
           parties refuse to endorse — the decision must be valid *)
        let validate v = String.length v mod 2 = 0 in
        List.iter
          (fun seed ->
            let kr = keyring th41 in
            let sim = Sim.create ~n:4 ~seed () in
            let results = Array.make 4 None in
            let nodes =
              Stack.deploy_vba ~sim ~keyring:kr
                ~tag:(Printf.sprintf "vba-ev-%d" seed) ~validate
                ~on_decide:(fun me ~winner value ->
                  results.(me) <- Some (winner, value))
                ()
            in
            (* the corrupted proposer injects an odd-length (invalid)
               payload; honest parties refuse to endorse it *)
            for dst = 0 to 3 do
              Sim.send sim ~src:0 ~dst
                (Link.Raw (Vba.Proposal_cbc (0, Cbc.Send "bad")))
            done;
            Vba.propose nodes.(1) "ok";
            Vba.propose nodes.(2) "fine";
            Vba.propose nodes.(3) "good";
            Sim.run sim;
            List.iter
              (fun i ->
                match results.(i) with
                | None -> Alcotest.fail "undecided"
                | Some (winner, v) ->
                  Alcotest.(check bool) "decided value valid" true (validate v);
                  Alcotest.(check bool) "winner is honest" true (winner > 0))
              [ 1; 2; 3 ])
          (List.init 4 (fun i -> 1200 + i)));
    Alcotest.test_case "vba: progress with a crashed party" `Quick (fun () ->
        List.iter
          (fun seed ->
            let values = [| "a"; "b"; "c"; "d" |] in
            let results =
              run_vba ~seed ~policy:Sim.Random_order ~crashed:[ 1 ] ~values ()
            in
            List.iter
              (fun i ->
                Alcotest.(check bool) "decided" true (results.(i) <> None))
              [ 0; 2; 3 ])
          (List.init 4 (fun i -> 1300 + i)));
    Alcotest.test_case "vba: a second propose sends nothing" `Quick (fun () ->
        List.iter
          (fun seed ->
            let kr = keyring th41 in
            let sim = Sim.create ~policy:Sim.Random_order ~n:4 ~seed () in
            let results = Array.make 4 None in
            let nodes =
              Stack.deploy_vba ~sim ~keyring:kr
                ~tag:(Printf.sprintf "vba-once-%d" seed)
                ~on_decide:(fun me ~winner value ->
                  results.(me) <- Some (winner, value))
                ()
            in
            (* what party 0's proposal CBC delivers to each party *)
            let sends = ref [] and finals = ref [] in
            for p = 0 to 3 do
              Sim.wrap_handler sim p (fun h ~src frame ->
                  (match Link.payload frame with
                  | Some (Vba.Proposal_cbc (0, Cbc.Send v)) ->
                    sends := v :: !sends
                  | Some (Vba.Proposal_cbc (0, Cbc.Final (v, _))) ->
                    finals := v :: !finals
                  | Some _ | None -> ());
                  h ~src frame)
            done;
            Vba.propose nodes.(0) "first";
            Vba.propose nodes.(0) "second";
            Array.iteri
              (fun i node -> if i > 0 then Vba.propose node (Printf.sprintf "v%d" i))
              nodes;
            Sim.run sim;
            Alcotest.(check (list string)) "one SEND per party, first value"
              [ "first"; "first"; "first"; "first" ] !sends;
            Alcotest.(check (list string)) "the first value certifies"
              [ "first"; "first"; "first"; "first" ] !finals;
            Array.iter
              (fun r ->
                Alcotest.(check bool) "decided" true (r <> None);
                Alcotest.(check bool) "same decision" true (r = results.(0)))
              results)
          (List.init 3 (fun i -> 1400 + i)))
  ]

(* ---------------- ABC ------------------------------------------------ *)

let run_abc ~seed ~policy ~crashed ~submissions ?(n = 4)
    ?(structure = th41) ?(variant = 0) () =
  let kr = keyring ~variant structure in
  let sim = Sim.create ~policy ~n ~seed () in
  let logs = Array.make n [] in
  let nodes =
    Stack.deploy_abc ~sim ~keyring:kr ~tag:(Printf.sprintf "abc-%d" seed)
      ~deliver:(fun me payload -> logs.(me) <- payload :: logs.(me)) ()
  in
  List.iter (Sim.crash sim) crashed;
  List.iter
    (fun (party, payload) ->
      if not (List.mem party crashed) then Abc.broadcast nodes.(party) payload)
    submissions;
  let honest = List.filter (fun i -> not (List.mem i crashed)) (List.init n Fun.id) in
  let expected = List.length (List.sort_uniq compare (List.map snd submissions)) in
  (try
     Sim.run sim
       ~until:(fun () ->
         List.for_all (fun i -> List.length logs.(i) >= expected) honest)
   with Sim.Out_of_steps _ -> ());
  (Array.map List.rev logs, honest)

let check_total_order logs honest =
  match honest with
  | [] -> ()
  | h :: rest ->
    List.iter
      (fun i ->
        Alcotest.(check (list string)) "identical delivery order" logs.(h)
          logs.(i))
      rest

(* Full Schnorr checks ([Obs_crypto.Verify]) made during [f]. *)
let full_checks f =
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs_crypto.disable ();
      Obs_crypto.reset ())
    (fun () ->
      f ();
      Obs_crypto.count Obs_crypto.Verify)

let abc_tests =
  [ Alcotest.test_case "abc: total order, concurrent submissions" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun policy ->
                let submissions =
                  [ (0, "tx-alpha"); (1, "tx-beta"); (2, "tx-gamma"); (3, "tx-delta") ]
                in
                let logs, honest =
                  run_abc ~seed ~policy ~crashed:[] ~submissions ()
                in
                check_total_order logs honest;
                List.iter
                  (fun i ->
                    Alcotest.(check int) "all delivered" 4 (List.length logs.(i));
                    Alcotest.(check (list string)) "same set"
                      (List.sort compare (List.map snd submissions))
                      (List.sort compare logs.(i)))
                  honest)
              (policies seed))
          [ 2000; 2001 ]);
    Alcotest.test_case "abc: liveness with a crashed server" `Quick (fun () ->
        let submissions = [ (0, "m1"); (2, "m2") ] in
        let logs, honest =
          run_abc ~seed:2100 ~policy:Sim.Random_order ~crashed:[ 1 ] ~submissions ()
        in
        check_total_order logs honest;
        List.iter
          (fun i -> Alcotest.(check int) "delivered both" 2 (List.length logs.(i)))
          honest);
    Alcotest.test_case "abc: single submitter, multiple payloads" `Quick
      (fun () ->
        let submissions = [ (0, "p1"); (0, "p2"); (0, "p3") ] in
        let logs, honest =
          run_abc ~seed:2200 ~policy:Sim.Random_order ~crashed:[] ~submissions ()
        in
        check_total_order logs honest;
        List.iter
          (fun i -> Alcotest.(check int) "delivered all" 3 (List.length logs.(i)))
          honest);
    Alcotest.test_case "abc: duplicate submissions delivered once" `Quick
      (fun () ->
        let submissions = [ (0, "dup"); (1, "dup"); (2, "dup") ] in
        let logs, honest =
          run_abc ~seed:2300 ~policy:Sim.Random_order ~crashed:[] ~submissions ()
        in
        check_total_order logs honest;
        List.iter
          (fun i -> Alcotest.(check (list string)) "once" [ "dup" ] logs.(i))
          honest);
    Alcotest.test_case "abc: a delivered round still echoes a late SEND" `Quick
      (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2350 () in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"abc-late-send"
            ~deliver:(fun _ _ -> ()) ()
        in
        (* Party 0 holds proposer 3's round-0 SEND; party 3 counts the
           echoes party 0 returns for that CBC. *)
        let held = ref None and echoes = ref 0 in
        Sim.wrap_handler sim 0 (fun h ~src frame ->
            match Link.payload frame with
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (3, Cbc.Send _)))
              when !held = None ->
              held := Some (fun () -> h ~src frame)
            | Some _ | None -> h ~src frame);
        Sim.wrap_handler sim 3 (fun h ~src frame ->
            (match Link.payload frame with
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (3, Cbc.Echo _)))
              when src = 0 ->
              incr echoes
            | Some _ | None -> ());
            h ~src frame);
        Array.iteri
          (fun i node -> Abc.broadcast node (Printf.sprintf "late-%d" i))
          nodes;
        Sim.run sim ~until:(fun () -> Abc.current_round nodes.(0) >= 1);
        Alcotest.(check bool) "party 0 delivered round 0" true
          (Abc.current_round nodes.(0) >= 1);
        Alcotest.(check int) "no echo before the SEND" 0 !echoes;
        (match !held with
        | Some release -> release ()
        | None -> Alcotest.fail "proposer 3's SEND never reached party 0");
        Sim.run sim;
        Alcotest.(check int) "party 0 echoes the late SEND" 1 !echoes);
    Alcotest.test_case "abc: a delivered round echoes two copies of a late SEND once"
      `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2350 () in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"abc-late-send-twice"
            ~deliver:(fun _ _ -> ()) ()
        in
        (* As above, but party 0 gets proposer 3's round-0 SEND twice once
           the round is delivered: the CBC is packed to its flags between
           the two copies, and the flags must remember the echo.  Party 0
           never gets proposer 2's FINAL, so that CBC stays undelivered
           and the round's VBA stays in place: without it the second copy
           would meet a tombstone and never reach the flags. *)
        let held = ref None and echoes = ref 0 in
        Sim.wrap_handler sim 0 (fun h ~src frame ->
            match Link.payload frame with
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (3, Cbc.Send _)))
              when !held = None ->
              held := Some (fun () -> h ~src frame)
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (2, Cbc.Final _))) -> ()
            | Some _ | None -> h ~src frame);
        Sim.wrap_handler sim 3 (fun h ~src frame ->
            (match Link.payload frame with
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (3, Cbc.Echo _)))
              when src = 0 ->
              incr echoes
            | Some _ | None -> ());
            h ~src frame);
        Array.iteri
          (fun i node -> Abc.broadcast node (Printf.sprintf "twice-%d" i))
          nodes;
        Sim.run sim ~until:(fun () -> Abc.current_round nodes.(0) >= 1);
        Alcotest.(check bool) "party 0 delivered round 0" true
          (Abc.current_round nodes.(0) >= 1);
        (match !held with
        | Some release ->
          release ();
          Sim.run sim;
          release ()
        | None -> Alcotest.fail "proposer 3's SEND never reached party 0");
        Sim.run sim;
        Alcotest.(check int) "party 0 echoes the late SEND once" 1 !echoes);
    Alcotest.test_case
      "abc: a late FINAL for an undelivered CBC of a decided round is verified \
       and sends nothing"
      `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2351 () in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"abc-late-final"
            ~deliver:(fun _ _ -> ()) ()
        in
        (* Party 0 holds proposer 3's round-0 FINAL, so that CBC is still
           undelivered when the round's VBA decides and packs it. *)
        let held = ref None in
        Sim.wrap_handler sim 0 (fun h ~src frame ->
            match Link.payload frame with
            | Some (Abc.Vba_msg (0, Vba.Proposal_cbc (3, Cbc.Final _)))
              when !held = None ->
              held := Some (fun () -> h ~src frame)
            | Some _ | None -> h ~src frame);
        Array.iteri
          (fun i node -> Abc.broadcast node (Printf.sprintf "final-%d" i))
          nodes;
        Sim.run sim;
        Alcotest.(check bool) "party 0 delivered round 0" true
          (Abc.current_round nodes.(0) >= 1);
        match !held with
        | None -> Alcotest.fail "proposer 3's FINAL never reached party 0"
        | Some release ->
          let before = Sim.pending_count sim in
          let checks = full_checks release in
          Alcotest.(check bool)
            (Printf.sprintf "the late FINAL's certificate is checked (%d checks)"
               checks)
            true (checks > 0);
          Alcotest.(check int) "party 0 sends nothing" before
            (Sim.pending_count sim))
  ]

(* ---------------- SC-ABC --------------------------------------------- *)

(* Live words per delivered round of a Scabc deployment (n = 4, batch 8,
   window 2, no checkpoints) between 64 and 128 ordered ciphertexts, and
   the number of rounds that took. *)
let scabc_words_per_round ~seed =
  let kr = keyring th41 in
  let sim = Sim.create ~n:4 ~seed () in
  let delivered = Array.make 4 0 in
  let nodes =
    Stack.deploy_scabc ~sim ~keyring:kr ~tag:"scabc-bounded"
      ~policy:{ Abc.default_policy with Abc.max_batch_msgs = 8; window = 2 }
      ~deliver:(fun me ~label:_ _ -> delivered.(me) <- delivered.(me) + 1)
      ()
  in
  let rng = Prng.create ~seed:83 in
  let submitted = ref 0 in
  (* Order [k] more ciphertexts, then read the live heap and the number
     of delivered rounds. *)
  let run_to k =
    let cts =
      List.init k (fun i ->
          Scabc.encrypt_request kr rng ~label:"b"
            (Printf.sprintf "req-%d" (!submitted + i)))
    in
    List.iter
      (fun ct ->
        Scabc.broadcast nodes.(!submitted mod 4) ct;
        incr submitted)
      cts;
    Sim.run sim;
    Array.iter
      (fun d -> Alcotest.(check int) "all delivered" !submitted d)
      delivered;
    let rounds = Abc.current_round (Scabc.abc nodes.(0)) in
    Gc.compact ();
    ((Gc.stat ()).Gc.live_words, rounds)
  in
  let w1, r1 = run_to 64 in
  let w2, r2 = run_to 64 in
  (* The deployment must still be live when the second figure is read,
     or the collector could free it first. *)
  Alcotest.(check int) "the deployment outlives the reading" 128
    (Scabc.delivered_count nodes.(0));
  ((w2 - w1) / (r2 - r1), r2 - r1)

let scabc_tests =
  [ Alcotest.test_case "scabc: confidential requests delivered in order"
      `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2500 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_scabc ~sim ~keyring:kr ~tag:"scabc-1"
            ~deliver:(fun me ~label payload ->
              logs.(me) <- (label, payload) :: logs.(me)) ()
        in
        let rng = Prng.create ~seed:77 in
        let ct1 = Scabc.encrypt_request kr rng ~label:"alice" "patent: flying car" in
        let ct2 = Scabc.encrypt_request kr rng ~label:"bob" "patent: time machine" in
        Scabc.broadcast nodes.(0) ct1;
        Scabc.broadcast nodes.(2) ct2;
        Sim.run sim
          ~until:(fun () ->
            Array.for_all (fun l -> List.length l >= 2) logs);
        let l0 = List.rev logs.(0) in
        Array.iter
          (fun l -> Alcotest.(check bool) "same order" true (List.rev l = l0))
          logs;
        Alcotest.(check (list string)) "plaintexts recovered"
          (List.sort compare [ "patent: flying car"; "patent: time machine" ])
          (List.sort compare (List.map snd l0));
        Alcotest.(check (list string)) "labels preserved"
          (List.sort compare [ "alice"; "bob" ])
          (List.sort compare (List.map fst l0)));
    Alcotest.test_case "scabc: invalid ciphertext is skipped" `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2600 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_scabc ~sim ~keyring:kr ~tag:"scabc-2"
            ~deliver:(fun me ~label:_ payload -> logs.(me) <- payload :: logs.(me)) ()
        in
        let rng = Prng.create ~seed:78 in
        let good = Scabc.encrypt_request kr rng ~label:"c" "legit" in
        Scabc.broadcast nodes.(1) "not a ciphertext at all";
        Scabc.broadcast nodes.(0) good;
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun l -> List.length l >= 1) logs);
        Array.iter
          (fun l -> Alcotest.(check (list string)) "only legit" [ "legit" ] l)
          logs);
    Alcotest.test_case
      "scabc: ordered garbage and invalid ciphertexts are skipped, later ones \
       deliver in order"
      `Quick (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:2700 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_scabc ~sim ~keyring:kr ~tag:"scabc-3"
            ~deliver:(fun me ~label:_ payload -> logs.(me) <- payload :: logs.(me)) ()
        in
        let enc = kr.Keyring.enc in
        let rng = Prng.create ~seed:79 in
        let first = Scabc.encrypt_request kr rng ~label:"c" "first" in
        (* decodes (its elements are subgroup members) but its
           consistency proof fails *)
        let invalid =
          let ct = Tdh2.encrypt enc rng ~label:"c" "forged" in
          Tdh2.ciphertext_to_bytes enc
            { ct with Tdh2.f = Bignum.add ct.Tdh2.f Bignum.one }
        in
        Alcotest.(check bool) "invalid decodes" true
          (Tdh2.ciphertext_of_bytes enc invalid <> None);
        Alcotest.(check bool) "but is not checked" true
          (Tdh2.checked_of_bytes enc invalid = None);
        let ordered () =
          Array.for_all (fun t -> Abc.delivered_count (Scabc.abc t) >= 3) nodes
        in
        Scabc.broadcast nodes.(0) first;
        Scabc.broadcast nodes.(1) "garbage, not a ciphertext";
        Scabc.broadcast nodes.(2) invalid;
        Sim.run sim ~until:(fun () ->
            ordered () && Array.for_all (fun l -> List.length l >= 1) logs);
        let later = [ "second"; "third"; "fourth" ] in
        List.iteri
          (fun i p ->
            Scabc.broadcast nodes.(i) (Scabc.encrypt_request kr rng ~label:"c" p))
          later;
        Sim.run sim ~until:(fun () -> Array.for_all (fun l -> List.length l >= 4) logs);
        let l0 = List.rev logs.(0) in
        Alcotest.(check string) "first delivered first" "first" (List.hd l0);
        Alcotest.(check (list string)) "then the later ones, and nothing else"
          (List.sort compare later) (List.sort compare (List.tl l0));
        Array.iteri
          (fun i t ->
            Alcotest.(check (list string))
              (Printf.sprintf "replica %d: same order" i) l0 (List.rev logs.(i));
            Alcotest.(check int) "every ciphertext ordered" 6
              (Abc.delivered_count (Scabc.abc t));
            Alcotest.(check int) "only the valid ones delivered" 4
              (Scabc.delivered_count t))
          nodes);
    Alcotest.test_case
      "scabc: state per delivered round stays bounded without checkpoints"
      `Quick (fun () ->
        (* A delivered round keeps its VBA's CBC flags or a tombstone, and
           its payloads in the log: about 1,350 words here, against about
           11,000 when every round kept its agreement state and every slot
           its ciphertext and decryption shares. *)
        let per_round, rounds = scabc_words_per_round ~seed:2800 in
        Alcotest.(check bool)
          (Printf.sprintf "%d live words per delivered round (%d rounds), under 6000"
             per_round rounds)
          true (per_round < 6000));
    Alcotest.test_case
      "scabc: a delivered round keeps only CBC flags or a tombstone"
      `Quick (fun () ->
        (* About 1,350 words per round, most of it the delivered
           log; about 2,900 when a round kept all n proposal CBCs, each
           with its closures and tag.  The bound is 1.5 times the
           measured figure. *)
        let per_round, rounds = scabc_words_per_round ~seed:2801 in
        Alcotest.(check bool)
          (Printf.sprintf "%d live words per delivered round (%d rounds), under %d"
             per_round rounds 2000)
          true (per_round < 2000))
  ]


(* ---------------- verified-signature memo --------------------------- *)

(* An environment whose memo is open, as an ABC round's subtree sees it. *)
let memo_io ?me kr =
  let io = checker_io ?me kr in
  let memo = Proto_io.fresh_memo () in
  Proto_io.open_memo memo;
  { io with Proto_io.memo }

let forge (sg : Schnorr_sig.signature) =
  { sg with Schnorr_sig.z = Bignum.add sg.Schnorr_sig.z Bignum.one }


(* Run an ABC deployment (window 2, batches of 2) over [payloads],
   calling [probe] on the nodes after every simulator step. *)
let run_abc_probed ~seed ~payloads probe =
  let kr = keyring th41 in
  let sim = Sim.create ~n:4 ~seed () in
  let policy = { Abc.default_policy with Abc.max_batch_msgs = 2; window = 2 } in
  let nodes =
    Stack.deploy_abc ~policy ~sim ~keyring:kr ~tag:"memo" ~deliver:(fun _ _ -> ())
      ()
  in
  List.iteri (fun i p -> Abc.broadcast nodes.(i mod 4) p) payloads;
  let total = List.length payloads in
  Sim.run sim ~until:(fun () ->
      probe nodes;
      Array.for_all (fun a -> Abc.delivered_count a = total) nodes);
  nodes

let memo_tests =
  let kr = keyring th41 in
  let stmt = "memo statement" in
  [ Alcotest.test_case "memo: a forged signature on a memoized statement is rejected"
      `Quick (fun () ->
        let io = memo_io kr in
        let sg = Keyring.sign kr ~party:1 stmt in
        Alcotest.(check bool) "genuine accepted" true
          (Proto_io.verify_signature io ~party:1 stmt sg);
        Alcotest.(check int) "memoized" 1 (Proto_io.memo_size io.Proto_io.memo);
        Alcotest.(check bool) "genuine hit" true
          (Proto_io.verify_signature io ~party:1 stmt sg);
        Alcotest.(check bool) "forged value rejected" false
          (Proto_io.verify_signature io ~party:1 stmt (forge sg));
        Alcotest.(check bool) "another signer's signature rejected" false
          (Proto_io.verify_signature io ~party:1 stmt
             (Keyring.sign kr ~party:2 stmt));
        Alcotest.(check bool) "claimed by another signer rejected" false
          (Proto_io.verify_signature io ~party:2 stmt sg);
        Alcotest.(check bool) "other statement rejected" false
          (Proto_io.verify_signature io ~party:1 "other statement" sg);
        Alcotest.(check int) "failures are never recorded" 1
          (Proto_io.memo_size io.Proto_io.memo));
    Alcotest.test_case
      "memo: a statement one byte away from a memoized one misses" `Quick
      (fun () ->
        let io = memo_io kr in
        (* long, like an ABC proposal statement that embeds its batch *)
        let stmt = String.init 4096 (fun i -> Char.chr (i mod 251)) in
        let sg = Keyring.sign kr ~party:1 stmt in
        Alcotest.(check bool) "genuine accepted" true
          (Proto_io.verify_signature io ~party:1 stmt sg);
        Alcotest.(check int) "memoized" 1 (Proto_io.memo_size io.Proto_io.memo);
        List.iter
          (fun i ->
            let near = Bytes.of_string stmt in
            Bytes.set near i (Char.chr (Char.code stmt.[i] lxor 1));
            Alcotest.(check bool)
              (Printf.sprintf "byte %d changed: rejected" i)
              false
              (Proto_io.verify_signature io ~party:1 (Bytes.to_string near) sg))
          [ 0; 2048; 4095 ];
        Alcotest.(check bool) "one byte longer: rejected" false
          (Proto_io.verify_signature io ~party:1 (stmt ^ "\000") sg);
        Alcotest.(check bool) "one byte shorter: rejected" false
          (Proto_io.verify_signature io ~party:1 (String.sub stmt 0 4095) sg);
        Alcotest.(check int) "no entry added" 1
          (Proto_io.memo_size io.Proto_io.memo);
        Alcotest.(check bool) "the memoized statement still hits" true
          (Proto_io.verify_signature io ~party:1 (String.init 4096 (fun i ->
               Char.chr (i mod 251))) sg));
    Alcotest.test_case
      "memo: a certificate mixing memoized and forged signatures is rejected"
      `Quick (fun () ->
        let io = memo_io kr in
        let shares =
          List.map (fun p -> (p, Keyring.cert_share kr ~party:p stmt)) [ 0; 1; 2 ]
        in
        List.iter
          (fun (p, sh) ->
            Alcotest.(check bool) "share accepted" true
              (Proto_io.verify_signature io ~party:p stmt sh))
          shares;
        let cert = Option.get (Keyring.make_cert kr stmt shares) in
        Alcotest.(check bool) "genuine certificate accepted" true
          (Proto_io.verify_cert io stmt cert);
        let mixed =
          List.map (fun (p, sg) -> if p = 2 then (p, forge sg) else (p, sg)) cert
        in
        Alcotest.(check bool) "mixed certificate rejected" false
          (Proto_io.verify_cert io stmt mixed);
        Alcotest.(check bool) "forged share rejected" false
          (Proto_io.verify_signature io ~party:2 stmt (forge (List.assoc 2 shares))));
    Alcotest.test_case "memo: two parties never share a memo table" `Quick
      (fun () ->
        let a = memo_io ~me:0 kr and b = memo_io ~me:1 kr in
        let sg = Keyring.sign kr ~party:3 stmt in
        ignore (Proto_io.verify_signature a ~party:3 stmt sg);
        Alcotest.(check int) "checker's memo fed" 1
          (Proto_io.memo_size a.Proto_io.memo);
        Alcotest.(check int) "other party's memo untouched" 0
          (Proto_io.memo_size b.Proto_io.memo);
        Alcotest.(check bool) "make gives each party its own memo" false
          ((checker_io ~me:0 kr).Proto_io.memo == (checker_io ~me:1 kr).Proto_io.memo);
        let seen = ref [] in
        let _ =
          run_abc_probed ~seed:71 ~payloads:[ "m1"; "m2"; "m3"; "m4" ]
            (fun nodes ->
              Array.iteri
                (fun me a ->
                  List.iter
                    (fun (r, m) ->
                      List.iter
                        (fun (me', r', m') ->
                          if me' <> me && m' == m then
                            Alcotest.failf "parties %d and %d share round %d/%d's memo"
                              me' me r' r)
                        !seen;
                      if not (List.exists (fun (_, _, m') -> m' == m) !seen) then
                        seen := (me, r, m) :: !seen)
                    (Abc.memos a))
                nodes)
        in
        Alcotest.(check bool) "round memos observed" true (!seen <> []));
    Alcotest.test_case "memo: a round's memo is emptied on delivery and on retire"
      `Quick (fun () ->
        let captured = ref [] in
        let nodes =
          run_abc_probed ~seed:72 ~payloads:[ "d1"; "d2"; "d3" ] (fun nodes ->
              List.iter
                (fun (r, m) ->
                  if Proto_io.memo_size m > 0 && not (List.mem_assq m !captured)
                  then captured := (m, r) :: !captured)
                (Abc.memos nodes.(0)))
        in
        Alcotest.(check bool) "some round memoized" true (!captured <> []);
        let a = nodes.(0) in
        List.iter
          (fun (m, r) ->
            if r < Abc.current_round a then begin
              Alcotest.(check int) "delivered round's memo empty" 0
                (Proto_io.memo_size m);
              Alcotest.(check bool) "and closed" false (Proto_io.memo_is_open m)
            end)
          !captured;
        Alcotest.(check bool) "no memo kept below the current round" true
          (List.for_all (fun (r, _) -> r >= Abc.current_round a) (Abc.memos a));
        (* Retire: a signed proposal for the current round fills its
           memo (with party 1's signature, and with this replica's own
           proposal signature as it joins the round); truncating past
           the round must empty and drop it. *)
        let r = Abc.current_round a in
        let sg =
          Keyring.sign kr ~party:1
            (Ro.encode [ "abc-prop"; "memo"; string_of_int r; "" ])
        in
        Abc.handle a ~src:1
          (Abc.Proposal (r, "", Schnorr_sig.to_bytes kr.Keyring.group sg));
        let v = List.assoc r (Abc.memos a) in
        Alcotest.(check int) "current round memoized" 2 (Proto_io.memo_size v);
        Abc.truncate a ~upto_round:(r + 1) ~upto_len:(Abc.delivered_count a);
        Alcotest.(check int) "retired round's memo empty" 0 (Proto_io.memo_size v);
        Alcotest.(check bool) "retired round's memo closed" false
          (Proto_io.memo_is_open v);
        Alcotest.(check bool) "retired round forgotten" false
          (List.mem_assoc r (Abc.memos a)));
    Alcotest.test_case "memo: open memos never exceed the window" `Quick
      (fun () ->
        let peak = ref 0 in
        let _ =
          run_abc_probed ~seed:73
            ~payloads:(List.init 12 (Printf.sprintf "w%d"))
            (fun nodes ->
              Array.iter
                (fun a ->
                  let cur = Abc.current_round a in
                  let live =
                    List.filter (fun (_, m) -> Proto_io.memo_is_open m) (Abc.memos a)
                  in
                  List.iter
                    (fun (r, _) ->
                      if r < cur || r >= cur + 2 then
                        Alcotest.failf "memo of round %d open at round %d" r cur)
                    live;
                  peak := max !peak (List.length live))
                nodes)
        in
        Alcotest.(check bool) "at most window = 2 open" true (!peak <= 2);
        Alcotest.(check int) "both window rounds memoized at once" 2 !peak);
    Alcotest.test_case "memo: a replica's own signature is a hit as it signs"
      `Quick (fun () ->
        let io = memo_io ~me:1 kr in
        let sg = Proto_io.sign io stmt in
        let share = Proto_io.sign io "share statement" in
        Alcotest.(check int) "both recorded as signed" 2
          (Proto_io.memo_size io.Proto_io.memo);
        Alcotest.(check int) "no full check of the replica's own work" 0
          (full_checks (fun () ->
               Alcotest.(check bool) "own signature accepted" true
                 (Proto_io.verify_signature io ~party:1 stmt sg);
               Alcotest.(check bool) "own share accepted" true
                 (Proto_io.verify_signature io ~party:1 "share statement"
                    share))));
    Alcotest.test_case
      "memo: another signature claiming the replica is checked in full"
      `Quick (fun () ->
        let io = memo_io ~me:1 kr in
        let sg = Proto_io.sign io stmt in
        Alcotest.(check int) "each one a full check" 3
          (full_checks (fun () ->
               Alcotest.(check bool) "forged value rejected" false
                 (Proto_io.verify_signature io ~party:1 stmt (forge sg));
               Alcotest.(check bool) "another signer's signature rejected" false
                 (Proto_io.verify_signature io ~party:1 stmt
                    (Keyring.sign kr ~party:2 stmt));
               Alcotest.(check bool) "other statement rejected" false
                 (Proto_io.verify_signature io ~party:1 "other statement" sg)));
        Alcotest.(check int) "only the signed entry" 1
          (Proto_io.memo_size io.Proto_io.memo));
    Alcotest.test_case "memo: a closed memo records nothing the replica signs"
      `Quick (fun () ->
        let io = checker_io ~me:1 kr in
        let sg = Proto_io.sign io stmt in
        ignore (Proto_io.sign io "share statement");
        Alcotest.(check int) "nothing recorded" 0
          (Proto_io.memo_size io.Proto_io.memo);
        Alcotest.(check bool) "still closed" false
          (Proto_io.memo_is_open io.Proto_io.memo);
        Alcotest.(check int) "the check runs in full" 1
          (full_checks (fun () ->
               Alcotest.(check bool) "own signature accepted" true
                 (Proto_io.verify_signature io ~party:1 stmt sg))))
  ]

(* Relay once: [Abc.broadcast] relays a payload to all servers on its
   first submission at a party only.  [Request]s are counted as each
   server receives them; a benign run delivers every message it sends. *)
let relay_tests =
  [ Alcotest.test_case
      "relay once: k submissions of one payload send n requests" `Quick
      (fun () ->
        let kr = keyring th41 in
        let sim = Sim.create ~n:4 ~seed:8101 () in
        let requests = ref 0 in
        let wrap _ honest ~src m =
          (match m with
          | Abc.Request _ -> incr requests
          | Abc.Proposal _ | Abc.Vba_msg _ -> ());
          honest ~src m
        in
        let nodes =
          Stack.deploy_abc ~wrap ~sim ~keyring:kr ~tag:"relay"
            ~deliver:(fun _ _ -> ()) ()
        in
        let all_delivered k =
          Array.for_all (fun a -> Abc.delivered_count a = k) nodes
        in
        for _ = 1 to 5 do
          Abc.broadcast nodes.(0) "resent"
        done;
        Alcotest.(check int) "one relay pending at the submitter" 1
          (Abc.relay_pending nodes.(0));
        Sim.run sim ~until:(fun () -> all_delivered 1);
        Sim.run sim;
        Alcotest.(check int) "5 submissions, n = 4 requests" 4 !requests;
        (* A delivered payload is never relayed again, at the first
           submitter or anywhere else. *)
        Array.iter (fun a -> Abc.broadcast a "resent") nodes;
        Sim.run sim;
        Alcotest.(check int) "no request for a delivered payload" 4 !requests;
        Alcotest.(check bool) "delivered once everywhere" true
          (all_delivered 1);
        (* A payload learned from a relay is relayed again by a server
           that is asked to broadcast it itself: one relay per honest
           submission. *)
        Abc.broadcast nodes.(1) "second";
        Sim.run sim ~until:(fun () ->
            List.mem "second" (Abc.pending nodes.(2)));
        Abc.broadcast nodes.(2) "second";
        Sim.run sim ~until:(fun () -> all_delivered 2);
        Sim.run sim;
        Alcotest.(check int) "two submitters, 2n more requests" 12 !requests;
        Array.iter
          (fun a ->
            Alcotest.(check int) "queue drained" 0
              (List.length (Abc.pending a));
            Alcotest.(check int) "relayed set empty" 0 (Abc.relay_pending a))
          nodes) ]

let suite =
  ( "protocols",
    rbc_tests @ cbc_tests @ abba_tests @ vba_tests @ abc_tests @ scabc_tests
    @ memo_tests @ relay_tests )
