(* Focused Byzantine behaviours against each protocol layer, exercising
   exactly the robustness mechanisms the paper's model demands: forged
   crypto shares must be filtered by their validity proofs, equivocation
   must be caught by quorum intersection, and unjustified votes must be
   rejected by the certificate checks. *)

module AS = Adversary_structure
module G = Schnorr_group

let ps = G.default ~bits:96 ()
let th41 = AS.threshold ~n:4 ~t:1
let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

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

let coin_tag = "coin-on-demand"

(* One ABBA run at n = 4 under [kr41].  Party i < [Array.length inputs]
   is honest and proposes [inputs.(i)]; party 3, when corrupted, first
   SUPPORTs both values to everyone — so both values get established
   and the honest pre-votes can split — and then runs [byzantine] on
   every delivery.  It never votes, so a 2-1 honest split leaves no
   value with a big quorum of pre-votes: every honest party main-votes
   abstain and needs the round's coin.  With [drop_coin] the simulator
   loses every coin share sent to an honest party.  Returns the honest
   decisions, the highest round an honest party reached, and the coin
   shares honest parties sent each other. *)
let coin_run ?(byzantine = fun _ ~src:_ _ -> ()) ?(drop_coin = false) ~seed
    inputs =
  let kr = Lazy.force kr41 in
  let honest = Array.length inputs in
  let sim = Sim.create ~n:4 ~seed () in
  let decisions = Array.make honest None in
  let nodes =
    Stack.deploy_abba ~sim ~keyring:kr ~tag:coin_tag
      ~on_decide:(fun me b -> if me < honest then decisions.(me) <- Some b)
      ()
  in
  let coin_shares = ref 0 in
  for p = 0 to honest - 1 do
    Sim.wrap_handler sim p (fun h ~src frame ->
        match frame with
        | Link.Raw (Abba.Coin_share _) ->
          if src < honest then incr coin_shares;
          if not drop_coin then h ~src frame
        | _ -> h ~src frame)
  done;
  if honest < 4 then begin
    Sim.set_handler sim 3 (byzantine sim);
    List.iter
      (fun b ->
        let share =
          Keyring.cert_share kr ~party:3
            (Ro.encode [ "abba-sup"; coin_tag; string_of_bool b ])
        in
        Sim.broadcast sim ~src:3 (Link.Raw (Abba.Support (b, share))))
      [ true; false ]
  end;
  Array.iteri (fun i b -> Abba.propose nodes.(i) b) inputs;
  (try Sim.run ~max_steps:20_000 sim with Sim.Out_of_steps _ -> ());
  let rounds =
    List.fold_left max 0
      (List.init honest (fun i -> Abba.current_round nodes.(i)))
  in
  (Array.to_list decisions, rounds, !coin_shares)

let split = [| true; false; true |]

(* Whether the 2-1 split leaves round 1 without a certifiable value
   depends on the delivery order: in this seed range it does for 800,
   802, 803 and 808, and not for the others. *)
let split_seeds = List.init 12 (fun i -> 800 + i)

let check_agreed decisions =
  match decisions with
  | Some d :: rest ->
    List.iter
      (fun d' -> Alcotest.(check (option bool)) "agree" (Some d) d')
      rest
  | _ -> Alcotest.fail "an honest party did not decide"

let coin_rule_tests =
  [ Alcotest.test_case "abba: a unanimous run releases no coin share"
      `Quick (fun () ->
        List.iter
          (fun (seed, b) ->
            let decisions, rounds, coin_shares =
              coin_run ~seed (Array.make 4 b)
            in
            List.iter
              (Alcotest.(check (option bool)) "decide the input" (Some b))
              decisions;
            Alcotest.(check int) "round 1" 1 rounds;
            Alcotest.(check int) "no coin share" 0 coin_shares)
          [ (41, true); (42, false); (43, true) ]);
    Alcotest.test_case "abba: an all-abstain round flips the coin and decides"
      `Quick (fun () ->
        let abstained =
          List.filter
            (fun seed ->
              let decisions, rounds, coin_shares = coin_run ~seed split in
              check_agreed decisions;
              (* a coin share goes out only with an abstain main-vote,
                 and an all-abstain round 1 is the only way to round 2 *)
              Alcotest.(check bool) "coin shares iff past round 1"
                (rounds >= 2) (coin_shares > 0);
              rounds >= 2)
            split_seeds
        in
        Alcotest.(check (list int)) "all-abstain seeds" [ 800; 802; 803; 808 ]
          abstained);
    Alcotest.test_case "abba: losing every coin share stalls exactly the runs \
                        that need the coin"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let _, needed, _ = coin_run ~seed split in
            let decisions, rounds, _ = coin_run ~drop_coin:true ~seed split in
            if needed >= 2 then begin
              Alcotest.(check (list (option bool))) "nobody decided"
                [ None; None; None ] decisions;
              Alcotest.(check int) "stuck in round 1" 1 rounds
            end
            else check_agreed decisions)
          split_seeds) ]

let forged_share_tests =
  [ Alcotest.test_case "abba: forged coin shares are filtered, run completes"
      `Quick (fun () ->
        (* in the split runs of [coin_run], the corrupted party also
           sends coin shares with broken proofs every time it receives
           anything; honest parties must reject them and still terminate
           using the honest shares *)
        let kr = Lazy.force kr41 in
        let forged_share r =
          (* a structurally valid share list with garbage values *)
          let honest = Coin.generate_share kr.Keyring.coin ~party:3
              ~name:(Ro.encode [ "abba-coin"; coin_tag; string_of_int r ])
          in
          List.map
            (fun (s : Coin.share) ->
              { s with Coin.value = G.mul ps s.Coin.value ps.G.g })
            honest
        in
        let forger () =
          let spams = ref 0 in
          fun sim ~src:_ (_ : Abba.msg Link.frame) ->
            if !spams < 25 then begin
              incr spams;
              for dst = 0 to 3 do
                Sim.send sim ~src:3 ~dst
                  (Link.Raw (Abba.Coin_share (1, forged_share 1)))
              done
            end
        in
        let needed = ref 0 in
        let fallbacks =
          count_fallbacks (fun () ->
              List.iter
                (fun seed ->
                  let decisions, rounds, _ =
                    coin_run ~byzantine:(forger ()) ~seed split
                  in
                  check_agreed decisions;
                  if rounds >= 2 then incr needed)
                split_seeds)
        in
        Alcotest.(check bool) "some run needed the coin" true (!needed > 0);
        (* receipt checks only the share shape: the forged proofs are
           caught by the combine-time batch, which falls back to
           attribution *)
        Alcotest.(check bool) "forgery caught at combine" true (fallbacks >= 1));
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
        let bogus_cert : Keyring.cert =
          List.map (fun p -> (p, Keyring.sign kr ~party:p "nonsense")) [ 0; 1; 2 ]
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
          [ 0; 1; 2 ]);
    Alcotest.test_case
      "vba: a garbled self-copy of a permutation-coin share is pruned" `Quick
      (fun () ->
        (* party 3 is honest, but the copy of its own permutation-coin
           share that reaches it is garbled: a replica trusts only the
           shares it generated, so the copy is proof-checked and pruned,
           and party 3 derives the same permutation as everyone else *)
        let kr = Lazy.force kr41 in
        let fallbacks =
          count_fallbacks (fun () ->
              List.iter
                (fun seed ->
                  let sim = Sim.create ~n:4 ~seed () in
                  let results = Array.make 4 None in
                  let nodes =
                    Stack.deploy_vba ~sim ~keyring:kr
                      ~tag:(Printf.sprintf "garbled-perm-%d" seed)
                      ~on_decide:(fun me ~winner v -> results.(me) <- Some (winner, v))
                      ()
                  in
                  let honest = fun ~src m -> Vba.handle nodes.(3) ~src m in
                  Sim.set_handler sim 3 (fun ~src frame ->
                      match Link.payload frame with
                      | Some (Vba.Perm_share shares) when src = 3 ->
                        let bad =
                          List.map
                            (fun (s : Coin.share) ->
                              { s with Coin.value = G.mul ps s.Coin.value ps.G.g })
                            shares
                        in
                        honest ~src (Vba.Perm_share bad)
                      | Some m -> honest ~src m
                      | None -> ());
                  Array.iteri
                    (fun i node -> Vba.propose node (Printf.sprintf "p%d" i))
                    nodes;
                  Sim.run sim;
                  let perm0 = Vba.permutation nodes.(0) in
                  Alcotest.(check bool) "permutation combined" true (perm0 <> None);
                  Array.iteri
                    (fun i node ->
                      Alcotest.(check bool)
                        (Printf.sprintf "party %d: same permutation" i)
                        true
                        (Vba.permutation node = perm0);
                      Alcotest.(check bool)
                        (Printf.sprintf "party %d: same decision" i)
                        true
                        (results.(i) <> None && results.(i) = results.(0)))
                    nodes)
                (List.init 6 (fun i -> 820 + i)))
        in
        Alcotest.(check bool) "garbled self-copy caught at combine" true
          (fallbacks >= 1))
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

let suite =
  ( "adversarial",
    coin_rule_tests @ forged_share_tests @ equivocation_tests )
