(* Tests for the Section 6 extensions: proactive share refresh and
   hybrid (Byzantine + crash) failure structures. *)

module AS = Adversary_structure
module B = Bignum
module G = Schnorr_group

let ps = G.default ~bits:96 ()
let th41 = AS.threshold ~n:4 ~t:1

let deal ?(seed = 42) structure = Dl_sharing.deal ps structure (Prng.create ~seed)

(* A proactive refresh is a reshare onto the current structure. *)
let refresh ?(dealers = Pset.of_list [ 0; 1; 2; 3 ]) sh rng =
  Proactive.run_reshare sh ~structure:sh.Dl_sharing.structure ~dealers rng

(* Shift every sub-dealing of a package: its values by [value], its
   leaf keys by [key]. *)
let tamper (pkg : Proactive.reshare_package) ~value ~key =
  { pkg with
    Proactive.r_deals =
      List.map
        (fun (l, shares, keys) ->
          ( l,
            List.map
              (fun (w : Lsss.subshare) ->
                { w with Lsss.value = value w.Lsss.value })
              shares,
            Array.map key keys ))
        pkg.Proactive.r_deals }

let shift v = B.add_mod v B.one ps.G.q

let proactive_tests =
  [ Alcotest.test_case "refresh preserves public key and leaf consistency"
      `Quick (fun () ->
        let sh = deal th41 in
        let rng = Prng.create ~seed:7 in
        match refresh ~dealers:(Pset.of_list [ 0; 1; 2 ]) sh rng with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          Alcotest.(check bool) "public key unchanged" true
            (G.elt_equal sh.Dl_sharing.public_key sh'.Dl_sharing.public_key);
          (* new leaf keys match new subshares *)
          List.iter
            (fun (s : Lsss.subshare) ->
              Alcotest.(check bool) "leaf key consistent" true
                (G.elt_equal sh'.Dl_sharing.leaf_keys.(s.leaf) (G.exp_g ps s.value)))
            sh'.Dl_sharing.subshares;
          (* shares actually changed *)
          Alcotest.(check bool) "shares re-randomized" false
            (List.for_all2
               (fun (a : Lsss.subshare) (b : Lsss.subshare) ->
                 B.equal a.value b.value)
               sh.Dl_sharing.subshares sh'.Dl_sharing.subshares));
    Alcotest.test_case "coin value survives the epoch change" `Quick (fun () ->
        let sh = deal ~seed:43 th41 in
        let rng = Prng.create ~seed:8 in
        let value sharing =
          let shares =
            List.init 2 (fun i ->
                (i, Coin.generate_share sharing ~party:i ~name:"epoch-coin"))
          in
          Coin.combine sharing ~name:"epoch-coin" ~avail:(Pset.of_list [ 0; 1 ])
            shares ()
        in
        let before = value sh in
        match refresh sh rng with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          Alcotest.(check bool) "combined before" true (before <> None);
          Alcotest.(check bool) "same coin value from fresh shares" true
            (value sh' = before));
    Alcotest.test_case "old and new shares do not mix" `Quick (fun () ->
        (* The mobile adversary holds party 0's share from epoch 0 and
           party 1's share from epoch 1; recombining them must NOT give
           the secret (checked in the exponent against the public key). *)
        let sh = deal ~seed:44 th41 in
        let rng = Prng.create ~seed:9 in
        match refresh sh rng with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          let leaf_of sharing party =
            match Dl_sharing.shares_of sharing party with
            | [ s ] -> (s.Lsss.leaf, G.exp_g ps s.Lsss.value)
            | _ -> Alcotest.fail "expected one leaf per party"
          in
          let mixed = [ leaf_of sh 0; leaf_of sh' 1 ] in
          (match
             Dl_sharing.combine_in_exponent sh ~avail:(Pset.of_list [ 0; 1 ])
               ~leaf_values:mixed
           with
          | None -> Alcotest.fail "combination unexpectedly refused"
          | Some g_x ->
            Alcotest.(check bool) "mixed epochs give garbage" false
              (G.elt_equal g_x sh.Dl_sharing.public_key));
          (* sanity: same-epoch shares do give the secret *)
          let fresh = [ leaf_of sh' 0; leaf_of sh' 1 ] in
          (match
             Dl_sharing.combine_in_exponent sh' ~avail:(Pset.of_list [ 0; 1 ])
               ~leaf_values:fresh
           with
          | None -> Alcotest.fail "fresh combination refused"
          | Some g_x ->
            Alcotest.(check bool) "fresh epoch recombines" true
              (G.elt_equal g_x sh.Dl_sharing.public_key)));
    Alcotest.test_case "tampered refresh package rejected" `Quick (fun () ->
        let sh = deal ~seed:45 th41 in
        let rng = Prng.create ~seed:10 in
        let target = Proactive.target_of sh sh.Dl_sharing.structure in
        let pkg = Proactive.make_reshare sh target ~dealer:0 rng in
        Alcotest.(check bool) "honest package ok" true
          (Proactive.verify_reshare sh target pkg);
        (* a consistent sharing of another value would shift the secret *)
        Alcotest.(check bool) "shifted sharing rejected" false
          (Proactive.verify_reshare sh target
             (tamper pkg ~value:shift ~key:(G.mul ps ps.G.g)));
        (* inconsistent keys rejected too *)
        Alcotest.(check bool) "inconsistent keys rejected" false
          (Proactive.verify_reshare sh target
             (tamper pkg ~value:Fun.id ~key:(G.mul ps ps.G.g))));
    Alcotest.test_case "epoch refused when refreshers may all be corrupted"
      `Quick (fun () ->
        let sh = deal ~seed:46 th41 in
        let rng = Prng.create ~seed:11 in
        match refresh ~dealers:(Pset.singleton 2) sh rng with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "singleton refresher set must be refused");
    Alcotest.test_case "refresh works over example1 structure" `Quick
      (fun () ->
        let s1 = Canonical_structures.example1 () in
        let sh = deal ~seed:47 s1 in
        let rng = Prng.create ~seed:12 in
        match refresh ~dealers:(Pset.of_list [ 0; 4; 6 ]) sh rng with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          Alcotest.(check bool) "public key unchanged" true
            (G.elt_equal sh.Dl_sharing.public_key sh'.Dl_sharing.public_key);
          Alcotest.(check bool) "shares re-randomized" false
            (List.for_all2
               (fun (a : Lsss.subshare) (b : Lsss.subshare) ->
                 B.equal a.value b.value)
               sh.Dl_sharing.subshares sh'.Dl_sharing.subshares);
          (* fresh TDH2 decryption still works with the refreshed shares *)
          let ct = Tdh2.encrypt sh' (Prng.create ~seed:1) ~label:"l" "msg" in
          let q = [ 0; 1; 4 ] in
          let shares =
            List.filter_map
              (fun i ->
                Option.map (fun s -> (i, s)) (Tdh2.decryption_share sh' ~party:i ct))
              q
          in
          Alcotest.(check (option string)) "decrypts after refresh" (Some "msg")
            (Tdh2.combine sh' (Option.get (Tdh2.check sh' ct))
               ~avail:(Pset.of_list q) shares))
  ]

let hybrid_tests =
  [ Alcotest.test_case "hybrid predicates and q3 arithmetic" `Quick (fun () ->
        let h = AS.hybrid_threshold ~n:6 ~byzantine:1 ~crash:1 in
        Alcotest.(check bool) "q3: 6 > 3+2" true (AS.satisfies_q3 h);
        Alcotest.(check bool) "pure threshold t=2 at n=6 fails q3" false
          (AS.satisfies_q3 (AS.threshold ~n:6 ~t:2));
        Alcotest.(check bool) "big quorum 4" true
          (AS.big_quorum h (Pset.of_list [ 0; 1; 2; 3 ]));
        Alcotest.(check bool) "big quorum 3" false
          (AS.big_quorum h (Pset.of_list [ 0; 1; 2 ]));
        Alcotest.(check bool) "two_cover 3" true
          (AS.two_cover h (Pset.of_list [ 0; 1; 2 ]));
        Alcotest.(check bool) "honest at 2" true
          (AS.contains_honest h (Pset.of_list [ 0; 1 ]));
        Alcotest.(check bool) "honest at 1" false
          (AS.contains_honest h (Pset.singleton 0));
        Alcotest.(check bool) "sharing compatible" true
          (AS.check_sharing_compatible h);
        Alcotest.(check (option int)) "min big quorum" (Some 4)
          (AS.min_big_quorum_size h));
    Alcotest.test_case "abc over hybrid: 1 byzantine + 1 crash on 6 servers"
      `Quick (fun () ->
        (* n=6 cannot tolerate 2 uniform Byzantine faults (needs 7), but
           the hybrid structure orders payloads with 1 Byzantine spammer
           plus 1 crashed server. *)
        let h = AS.hybrid_threshold ~n:6 ~byzantine:1 ~crash:1 in
        let kr = Keyring.deal ~rsa_bits:192 ~seed:71 h in
        List.iter
          (fun seed ->
            let sim = Sim.create ~n:6 ~seed () in
            let logs = Array.make 6 [] in
            let nodes =
              Stack.deploy_abc ~sim ~keyring:kr
                ~tag:(Printf.sprintf "hyb-%d" seed)
                ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
            in
            Sim.crash sim 5;
            (* server 4 is Byzantine: it spams junk round proposals *)
            Sim.set_handler sim 4 (fun ~src:_ (_ : Abc.msg Link.frame) ->
                for dst = 0 to 5 do
                  Sim.send sim ~src:4 ~dst
                    (Link.Raw (Abc.Proposal (0, "junk", "junk-sig")))
                done);
            Abc.broadcast nodes.(0) "hybrid-payload-1";
            Abc.broadcast nodes.(2) "hybrid-payload-2";
            let honest = [ 0; 1; 2; 3 ] in
            Sim.run sim
              ~until:(fun () ->
                List.for_all (fun i -> List.length logs.(i) >= 2) honest);
            List.iter
              (fun i ->
                Alcotest.(check (list string)) "same order"
                  (List.rev logs.(List.hd honest))
                  (List.rev logs.(i)))
              honest)
          [ 501; 502 ]);
    Alcotest.test_case "hybrid service end-to-end" `Quick (fun () ->
        let h = AS.hybrid_threshold ~n:6 ~byzantine:1 ~crash:1 in
        let kr = Keyring.deal ~rsa_bits:192 ~seed:72 h in
        let sim = Sim.create ~n:6 ~seed:503 () in
        let _nodes =
          Service.deploy ~sim ~keyring:kr ~mode:Service.Plain
            ~make_app:Directory_service.make_app ()
        in
        Sim.crash sim 3;
        let client =
          Service.Client.create ~sim ~keyring:kr ~slot:6 ~seed:1 ()
        in
        let result = ref None in
        Service.Client.request client ~mode:Service.Plain
          (Directory_service.bind_request ~key:"a" ~value:"1") (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        Alcotest.(check bool) "bound with a crash on hybrid structure" true
          (match !result with
          | Some rc -> Codec.decode rc.Service.rc_response = Some [ "bound"; "a" ]
          | None -> false))
  ]

(* ---- proactive edge cases and membership-change resharing ----------- *)

let member_formula members =
  (* t = 1 over the listed members, inside a fixed n = 4 universe *)
  Monotone_formula.threshold 2 (List.map Monotone_formula.leaf members)

let proactive_edge_tests =
  [ Alcotest.test_case "an empty refresh is refused, not applied" `Quick
      (fun () ->
        (* with no package the epoch must not advance: there is no
           qualified dealer set to recombine from *)
        let sh = deal ~seed:48 th41 in
        let target = Proactive.target_of sh sh.Dl_sharing.structure in
        match Proactive.apply_reshares sh target [] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "an empty package list must be refused");
    Alcotest.test_case "run_epoch with an unqualified refresher set" `Quick
      (fun () ->
        let sh = deal ~seed:49 th41 in
        let rng = Prng.create ~seed:13 in
        (match refresh ~dealers:Pset.empty sh rng with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "empty refresher set must be refused");
        match refresh ~dealers:(Pset.singleton 1) sh rng with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "possibly-corrupted singleton must be refused");
    Alcotest.test_case "duplicate-dealer refresh packages stay consistent"
      `Quick (fun () ->
        (* a dealer's package delivered twice is refused outright; the
           distinct packages still give a consistent sharing *)
        let sh = deal ~seed:50 th41 in
        let rng = Prng.create ~seed:14 in
        let target = Proactive.target_of sh sh.Dl_sharing.structure in
        let p0 = Proactive.make_reshare sh target ~dealer:0 rng in
        let p0' = Proactive.make_reshare sh target ~dealer:0 rng in
        let p1 = Proactive.make_reshare sh target ~dealer:1 rng in
        (match Proactive.apply_reshares sh target [ p0; p0'; p1 ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "duplicate dealer must be refused");
        match Proactive.apply_reshares sh target [ p0; p1 ] with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          Alcotest.(check bool) "public key unchanged" true
            (G.elt_equal sh.Dl_sharing.public_key sh'.Dl_sharing.public_key);
          List.iter
            (fun (s : Lsss.subshare) ->
              Alcotest.(check bool) "leaf key consistent" true
                (G.elt_equal sh'.Dl_sharing.leaf_keys.(s.leaf)
                   (G.exp_g ps s.value)))
            sh'.Dl_sharing.subshares);
    Alcotest.test_case "reshare rejects duplicate dealers" `Quick (fun () ->
        let sh = deal ~seed:51 th41 in
        let rng = Prng.create ~seed:15 in
        let target = Proactive.target_of sh th41 in
        let p0 = Proactive.make_reshare sh target ~dealer:0 rng in
        let p0' = Proactive.make_reshare sh target ~dealer:0 rng in
        match Proactive.apply_reshares sh target [ p0; p0' ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "duplicate dealer must be refused") ]

let reshare_tests =
  [ Alcotest.test_case "reshare to the same structure re-randomizes" `Quick
      (fun () ->
        let sh = deal ~seed:52 th41 in
        let rng = Prng.create ~seed:16 in
        match
          Proactive.run_reshare sh ~structure:th41
            ~dealers:(Pset.of_list [ 0; 1; 2 ])
            rng
        with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          Alcotest.(check bool) "public key unchanged" true
            (G.elt_equal sh.Dl_sharing.public_key sh'.Dl_sharing.public_key);
          Alcotest.(check bool) "shares changed" false
            (List.for_all2
               (fun (a : Lsss.subshare) (b : Lsss.subshare) ->
                 B.equal a.value b.value)
               sh.Dl_sharing.subshares sh'.Dl_sharing.subshares);
          List.iter
            (fun (s : Lsss.subshare) ->
              Alcotest.(check bool) "leaf key consistent" true
                (G.elt_equal sh'.Dl_sharing.leaf_keys.(s.leaf)
                   (G.exp_g ps s.value)))
            sh'.Dl_sharing.subshares);
    Alcotest.test_case "remove then re-add a replica preserves the secret"
      `Quick (fun () ->
        (* 4 members -> drop party 3 -> re-admit party 3; the public key
           never changes and the final sharing serves party 3 again *)
        let sh = deal ~seed:53 th41 in
        let rng = Prng.create ~seed:17 in
        let without3 =
          AS.of_access_formula ~n:4 (member_formula [ 0; 1; 2 ])
        in
        let removed =
          match
            Proactive.run_reshare sh ~structure:without3
              ~dealers:(Pset.of_list [ 0; 1; 2 ])
              rng
          with
          | Error e -> Alcotest.fail e
          | Ok s -> s
        in
        Alcotest.(check bool) "pk invariant after removal" true
          (G.elt_equal sh.Dl_sharing.public_key
             removed.Dl_sharing.public_key);
        Alcotest.(check int) "removed party owns nothing" 0
          (List.length (Dl_sharing.shares_of removed 3));
        let readded =
          match
            Proactive.run_reshare removed ~structure:th41
              ~dealers:(Pset.of_list [ 0; 1; 2 ])
              rng
          with
          | Error e -> Alcotest.fail e
          | Ok s -> s
        in
        Alcotest.(check bool) "pk invariant after re-add" true
          (G.elt_equal sh.Dl_sharing.public_key
             readded.Dl_sharing.public_key);
        Alcotest.(check bool) "re-admitted party holds shares" true
          (Dl_sharing.shares_of readded 3 <> []);
        (* the re-admitted replica's shares really open the secret *)
        let leaf_vals =
          List.concat_map
            (fun p ->
              List.map
                (fun (s : Lsss.subshare) ->
                  (s.Lsss.leaf, G.exp_g ps s.Lsss.value))
                (Dl_sharing.shares_of readded p))
            [ 2; 3 ]
        in
        match
          Dl_sharing.combine_in_exponent readded
            ~avail:(Pset.of_list [ 2; 3 ]) ~leaf_values:leaf_vals
        with
        | None -> Alcotest.fail "post-re-add combination refused"
        | Some g_x ->
          Alcotest.(check bool) "opens to the public key" true
            (G.elt_equal g_x sh.Dl_sharing.public_key));
    Alcotest.test_case "old shares are useless after a reshare" `Quick
      (fun () ->
        let sh = deal ~seed:54 th41 in
        let rng = Prng.create ~seed:18 in
        match
          Proactive.run_reshare sh ~structure:th41
            ~dealers:(Pset.of_list [ 0; 1; 2; 3 ])
            rng
        with
        | Error e -> Alcotest.fail e
        | Ok sh' ->
          let leaf_of sharing party =
            match Dl_sharing.shares_of sharing party with
            | [ s ] -> (s.Lsss.leaf, G.exp_g ps s.Lsss.value)
            | _ -> Alcotest.fail "expected one leaf per party"
          in
          (match
             Dl_sharing.combine_in_exponent sh ~avail:(Pset.of_list [ 0; 1 ])
               ~leaf_values:[ leaf_of sh 0; leaf_of sh' 1 ]
           with
          | None -> Alcotest.fail "combination unexpectedly refused"
          | Some g_x ->
            Alcotest.(check bool) "mixed epochs give garbage" false
              (G.elt_equal g_x sh.Dl_sharing.public_key)));
    Alcotest.test_case "reshare refused without a qualified dealer set"
      `Quick (fun () ->
        let sh = deal ~seed:55 th41 in
        let rng = Prng.create ~seed:19 in
        match
          Proactive.run_reshare sh ~structure:th41 ~dealers:(Pset.singleton 0)
            rng
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "singleton dealer set must be refused");
    Alcotest.test_case "tampered reshare package rejected" `Quick (fun () ->
        let sh = deal ~seed:56 th41 in
        let rng = Prng.create ~seed:20 in
        let target = Proactive.target_of sh th41 in
        let pkg = Proactive.make_reshare sh target ~dealer:2 rng in
        Alcotest.(check bool) "honest package ok" true
          (Proactive.verify_reshare sh target pkg);
        (* shifting one sub-dealing's value breaks the key binding *)
        let bad =
          { pkg with
            Proactive.r_deals =
              List.map
                (fun (l, shares, keys) ->
                  ( l,
                    List.map
                      (fun (w : Lsss.subshare) ->
                        { w with
                          Lsss.value = B.add_mod w.Lsss.value B.one ps.G.q })
                      shares,
                    keys ))
                pkg.Proactive.r_deals }
        in
        Alcotest.(check bool) "shifted values rejected" false
          (Proactive.verify_reshare sh target bad);
        (* consistently shifted keys+values dodge the key binding but not
           the old-leaf-key recombination check *)
        let bad2 =
          { pkg with
            Proactive.r_deals =
              List.map
                (fun (l, shares, keys) ->
                  ( l,
                    List.map
                      (fun (w : Lsss.subshare) ->
                        { w with
                          Lsss.value = B.add_mod w.Lsss.value B.one ps.G.q })
                      shares,
                    Array.map (fun k -> G.mul ps k ps.G.g) keys ))
                pkg.Proactive.r_deals }
        in
        Alcotest.(check bool) "shifted sharing rejected" false
          (Proactive.verify_reshare sh target bad2);
        (* claiming someone else's leaves is rejected *)
        let bad3 = { pkg with Proactive.r_dealer = 3 } in
        Alcotest.(check bool) "wrong dealer rejected" false
          (Proactive.verify_reshare sh target bad3)) ]

let suite =
  ( "extensions",
    proactive_tests @ proactive_edge_tests @ reshare_tests @ hybrid_tests )
