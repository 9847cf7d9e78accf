(* Focused Byzantine behaviours against each protocol layer, exercising
   exactly the robustness mechanisms the paper's model demands: forged
   crypto shares must be filtered by their validity proofs, equivocation
   must be caught by quorum intersection, and unjustified votes must be
   rejected by the certificate checks.  Also: DRBG tests. *)

module AS = Adversary_structure
module G = Schnorr_group

let ps = G.default ~bits:96 ()
let th41 = AS.threshold ~n:4 ~t:1
let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

(* ---------------- DRBG ------------------------------------------------ *)

let drbg_tests =
  [ Alcotest.test_case "drbg deterministic and seed-separated" `Quick
      (fun () ->
        let a = Drbg.create ~seed:"s1" ~personalization:"p" in
        let b = Drbg.create ~seed:"s1" ~personalization:"p" in
        let c = Drbg.create ~seed:"s2" ~personalization:"p" in
        let d = Drbg.create ~seed:"s1" ~personalization:"q" in
        let xa = Drbg.bytes a 64 and xb = Drbg.bytes b 64 in
        Alcotest.(check bool) "same seed same stream" true (xa = xb);
        Alcotest.(check bool) "different seed differs" false
          (xa = Drbg.bytes c 64);
        Alcotest.(check bool) "different personalization differs" false
          (xa = Drbg.bytes d 64));
    Alcotest.test_case "drbg ratchets (no block repeats)" `Quick (fun () ->
        let t = Drbg.of_int_seed 5 in
        let blocks = List.init 50 (fun _ -> Drbg.block t) in
        Alcotest.(check int) "all distinct" 50
          (List.length (List.sort_uniq compare blocks)));
    Alcotest.test_case "drbg reseed changes the stream" `Quick (fun () ->
        let a = Drbg.of_int_seed 6 and b = Drbg.of_int_seed 6 in
        ignore (Drbg.bytes a 32);
        ignore (Drbg.bytes b 32);
        Drbg.reseed a ~entropy:"fresh";
        Alcotest.(check bool) "diverged" false (Drbg.bytes a 32 = Drbg.bytes b 32));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"drbg bignum_below in range"
         QCheck2.Gen.(pair (int_range 1 1000000) int)
         (fun (bound, seed) ->
           let t = Drbg.of_int_seed seed in
           let b = Bignum.of_int bound in
           let v = Drbg.bignum_below t b in
           Bignum.sign v >= 0 && Bignum.lt v b))
  ]

(* ---------------- forged crypto shares in protocols ------------------- *)

(* [Obs_crypto]'s batch-verification fallbacks during [f]: how often a
   combine-time batch failed and bad shares had to be attributed. *)
let count_fallbacks f =
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs_crypto.disable ();
      Obs_crypto.reset ())
    (fun () ->
      f ();
      Obs_crypto.count Obs_crypto.Batch_verify_fallback)

let forged_share_tests =
  [ Alcotest.test_case "abba: forged coin shares are filtered, run completes"
      `Quick (fun () ->
        (* party 3 sends coin shares with broken proofs every time it
           receives anything; honest parties must reject them and still
           terminate using the honest shares *)
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:808 () in
        let decisions = Array.make 4 None in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr ~tag:"forged-coin"
            ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
        in
        let forged_share r =
          (* a structurally valid share list with garbage values *)
          let honest = Coin.generate_share kr.Keyring.coin ~party:3
              ~name:(Ro.encode [ "abba-coin"; "forged-coin"; string_of_int r ])
          in
          List.map
            (fun (s : Coin.share) ->
              { s with Coin.value = G.mul ps s.Coin.value ps.G.g })
            honest
        in
        let spams = ref 0 in
        Sim.set_handler sim 3 (fun ~src:_ (_ : Abba.msg Link.frame) ->
            if !spams < 25 then begin
              incr spams;
              for dst = 0 to 3 do
                Sim.send sim ~src:3 ~dst
                  (Link.Raw (Abba.Coin_share (1, forged_share 1)))
              done
            end);
        Array.iteri
          (fun i node -> if i < 3 then Abba.propose node (i mod 2 = 0))
          nodes;
        let fallbacks = count_fallbacks (fun () -> Sim.run sim) in
        (* receipt checks only the share shape: the forged proofs are
           caught by the combine-time batch, which falls back to
           attribution *)
        Alcotest.(check bool) "forgery caught at combine" true (fallbacks >= 1);
        let ds = List.filter_map (fun i -> decisions.(i)) [ 0; 1; 2 ] in
        Alcotest.(check int) "all honest decided" 3 (List.length ds);
        (match ds with
        | d :: rest ->
          List.iter (fun d' -> Alcotest.(check bool) "agree" true (d = d')) rest
        | [] -> ()));
    Alcotest.test_case "abba: unjustified mainvote is ignored" `Quick
      (fun () ->
        (* a Byzantine party claims Value true with a bogus certificate;
           honest parties must not be influenced when all propose false *)
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:809 () in
        let decisions = Array.make 4 None in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr ~tag:"unjust"
            ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
        in
        Sim.set_handler sim 3 (fun ~src:_ (_ : Abba.msg Link.frame) -> ());
        (* forge: a mainvote Value true with a vector cert signed over the
           WRONG statement (the complaint statement) *)
        let bogus_cert =
          Keyring.Vector_cert
            (List.map (fun p -> (p, Keyring.sign kr ~party:p "nonsense")) [ 0; 1; 2 ])
        in
        let share =
          Keyring.cert_share kr ~party:3
            (Ro.encode [ "abba-main"; "unjust"; "1"; "true" ])
        in
        for dst = 0 to 2 do
          Sim.send sim ~src:3 ~dst
            (Link.Raw
               (Abba.Mainvote
                  { Abba.mv_round = 1;
                    mv_value = Abba.Value true;
                    mv_just = Abba.J_quorum bogus_cert;
                    mv_share = share }))
        done;
        Array.iteri (fun i node -> if i < 3 then Abba.propose node false) nodes;
        Sim.run sim;
        List.iter
          (fun i ->
            Alcotest.(check (option bool)) "decides false despite forgery"
              (Some false) decisions.(i))
          [ 0; 1; 2 ]);
    Alcotest.test_case "scabc: forged decryption shares do not break delivery"
      `Quick (fun () ->
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:810 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_scabc ~sim ~keyring:kr ~tag:"forged-dec"
            ~deliver:(fun me ~label:_ p -> logs.(me) <- p :: logs.(me)) ()
        in
        (* party 3 behaves honestly except it garbles its decryption
           shares (flips the group element) *)
        let honest = fun ~src m -> Scabc.handle nodes.(3) ~src m in
        Sim.set_handler sim 3 (fun ~src frame ->
            match Link.payload frame with
            | Some (Scabc.Dec_share (d, shares)) when src = 3 ->
              let bad =
                List.map
                  (fun (s : Tdh2.dec_share) ->
                    { s with Tdh2.value = G.mul ps s.Tdh2.value ps.G.g })
                  shares
              in
              honest ~src (Scabc.Dec_share (d, bad))
            | Some m -> honest ~src m
            | None -> ());
        let rng = Prng.create ~seed:4 in
        let ct = Scabc.encrypt_request kr rng ~label:"x" "still-secret" in
        Scabc.broadcast nodes.(0) ct;
        let fallbacks =
          count_fallbacks (fun () ->
              Sim.run sim
                ~until:(fun () ->
                  List.for_all (fun i -> logs.(i) <> []) [ 0; 1; 2 ]))
        in
        Alcotest.(check bool) "forgery caught at combine" true (fallbacks >= 1);
        List.iter
          (fun i ->
            Alcotest.(check (list string)) "decrypted from honest shares"
              [ "still-secret" ] logs.(i))
          [ 0; 1; 2 ])
  ]

(* ---------------- equivocation and replay ----------------------------- *)

let equivocation_tests =
  [ Alcotest.test_case "vba: equivocating proposer cannot split the decision"
      `Quick (fun () ->
        (* proposer 0 CBC-sends value "x" to parties 1,2 and "y" to 3;
           the consistent broadcast allows at most one certificate, so
           the agreement stays consistent *)
        List.iter
          (fun seed ->
            let kr = Lazy.force kr41 in
            let sim = Sim.create ~n:4 ~seed () in
            let results = Array.make 4 None in
            let nodes =
              Stack.deploy_vba ~sim ~keyring:kr
                ~tag:(Printf.sprintf "equiv-%d" seed)
                ~on_decide:(fun me ~winner v -> results.(me) <- Some (winner, v))
                ()
            in
            Sim.send sim ~src:0 ~dst:1
              (Link.Raw (Vba.Proposal_cbc (0, Cbc.Send "x")));
            Sim.send sim ~src:0 ~dst:2
              (Link.Raw (Vba.Proposal_cbc (0, Cbc.Send "x")));
            Sim.send sim ~src:0 ~dst:3
              (Link.Raw (Vba.Proposal_cbc (0, Cbc.Send "y")));
            Vba.propose nodes.(1) "v1";
            Vba.propose nodes.(2) "v2";
            Vba.propose nodes.(3) "v3";
            Sim.run sim;
            let decided = List.filter_map (fun i -> results.(i)) [ 1; 2; 3 ] in
            Alcotest.(check int) "honest decided" 3 (List.length decided);
            match decided with
            | (w, v) :: rest ->
              List.iter
                (fun (w', v') ->
                  Alcotest.(check int) "same winner" w w';
                  Alcotest.(check string) "same value" v v')
                rest
            | [] -> ())
          [ 910; 911; 912 ]);
    Alcotest.test_case "abc: replayed proposals from old rounds are harmless"
      `Quick (fun () ->
        (* a Byzantine party records a signed round-0 proposal and replays
           it in later rounds; the round-bound statement makes it invalid *)
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:920 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"replay"
            ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
        in
        (* capture party 3's honest handler and add replay behaviour *)
        let honest = fun ~src m -> Abc.handle nodes.(3) ~src m in
        let recorded = ref None in
        let replays = ref 0 in
        Sim.set_handler sim 3 (fun ~src frame ->
            match Link.payload frame with
            | None -> ()
            | Some m ->
              (match m with
              | Abc.Proposal (0, payload, sg) when !recorded = None ->
                recorded := Some (payload, sg)
              | _ -> ());
              (match !recorded with
              | Some (payload, sg) when !replays < 20 ->
                (* replay into round 1 under the original signature *)
                incr replays;
                for dst = 0 to 3 do
                  Sim.send sim ~src:3 ~dst
                    (Link.Raw (Abc.Proposal (1, payload, sg)))
                done
              | Some _ | None -> ());
              honest ~src m);
        Abc.broadcast nodes.(0) "r0-payload";
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> logs.(i) <> []) [ 0; 1; 2 ]);
        Abc.broadcast nodes.(1) "r1-payload";
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> List.length logs.(i) >= 2) [ 0; 1; 2 ]);
        List.iter
          (fun i ->
            Alcotest.(check (list string)) "order intact"
              (List.rev logs.(0)) (List.rev logs.(i));
            Alcotest.(check int) "nothing extra" 2 (List.length logs.(i)))
          [ 0; 1; 2 ]);
    Alcotest.test_case "pbft: byzantine prepare digests cannot corrupt a slot"
      `Quick (fun () ->
        (* a Byzantine replica sends PREPARE messages with a wrong digest;
           the quorum check counts only matching ones, so the slot commits
           the leader's payload or nothing *)
        let sim = Sim.create ~policy:Sim.Latency_order ~n:4 ~seed:930 () in
        let logs = Array.make 4 [] in
        let nodes =
          Baseline_stack.deploy ~sim ~f:1
            ~deliver:(fun me p -> logs.(me) <- p :: logs.(me))
            ()
        in
        let honest = fun ~src m -> Pbft_lite.handle nodes.(3) ~src m in
        Sim.set_handler sim 3 (fun ~src m ->
            (match m with
            | Pbft_lite.Pre_prepare (v, seq, _) ->
              for dst = 0 to 3 do
                Sim.send sim ~src:3 ~dst
                  (Pbft_lite.Prepare (v, seq, Sha256.digest "evil"))
              done
            | _ -> ());
            honest ~src m);
        Pbft_lite.submit nodes.(0) "good-payload";
        Sim.run sim
          ~until:(fun () ->
            List.for_all (fun i -> logs.(i) <> []) [ 0; 1; 2 ]);
        List.iter
          (fun i ->
            Alcotest.(check (list string)) "correct payload committed"
              [ "good-payload" ] logs.(i))
          [ 0; 1; 2 ])
  ]

let suite = ("adversarial", drbg_tests @ forged_share_tests @ equivocation_tests)
