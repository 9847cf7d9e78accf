(* Threshold-cryptography tests: DLEQ soundness/completeness, coin
   consistency and robustness, TDH2 round-trips and CCA checks, Shoup RSA
   threshold signatures, certificate signatures over generalized
   structures, and the keyring dealer. *)

module B = Bignum
module G = Schnorr_group
module AS = Adversary_structure

let ps = G.default ~bits:96 ()
let th43 = AS.threshold ~n:4 ~t:1
let th72 = AS.threshold ~n:7 ~t:2

let deal ?(seed = 42) structure =
  Dl_sharing.deal ps structure (Prng.create ~seed)

let qtest ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let dleq_tests =
  [ Alcotest.test_case "dleq completeness" `Quick (fun () ->
        let rng = Prng.create ~seed:1 in
        let x = G.random_exponent ps rng in
        let g2 = G.hash_to_elt ps ~domain:"t" [ "g2" ] in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 x in
        let proof = Dleq.prove ps ~domain:"d" ~x ~g1:ps.G.g ~h1 ~g2 ~h2 in
        Alcotest.(check bool) "verifies" true
          (Dleq.verify ps ~domain:"d" ~g1:ps.G.g ~h1 ~g2 ~h2 proof));
    Alcotest.test_case "dleq soundness: unequal logs rejected" `Quick
      (fun () ->
        let rng = Prng.create ~seed:2 in
        let x = G.random_exponent ps rng in
        let y = B.add_mod x B.one ps.G.q in
        let g2 = G.hash_to_elt ps ~domain:"t" [ "g2" ] in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 y (* wrong exponent *) in
        let proof = Dleq.prove ps ~domain:"d" ~x ~g1:ps.G.g ~h1 ~g2 ~h2 in
        Alcotest.(check bool) "rejected" false
          (Dleq.verify ps ~domain:"d" ~g1:ps.G.g ~h1 ~g2 ~h2 proof));
    Alcotest.test_case "dleq domain separation" `Quick (fun () ->
        let rng = Prng.create ~seed:3 in
        let x = G.random_exponent ps rng in
        let g2 = G.hash_to_elt ps ~domain:"t" [ "g2" ] in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 x in
        let proof = Dleq.prove ps ~domain:"d1" ~x ~g1:ps.G.g ~h1 ~g2 ~h2 in
        Alcotest.(check bool) "other domain rejects" false
          (Dleq.verify ps ~domain:"d2" ~g1:ps.G.g ~h1 ~g2 ~h2 proof));
    Alcotest.test_case "dleq rejects tampered statement" `Quick (fun () ->
        let rng = Prng.create ~seed:4 in
        let x = G.random_exponent ps rng in
        let g2 = G.hash_to_elt ps ~domain:"t" [ "g2" ] in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 x in
        let proof = Dleq.prove ps ~domain:"d" ~x ~g1:ps.G.g ~h1 ~g2 ~h2 in
        let h2' = G.mul ps h2 ps.G.g in
        Alcotest.(check bool) "tampered h2" false
          (Dleq.verify ps ~domain:"d" ~g1:ps.G.g ~h1 ~g2 ~h2:h2' proof))
  ]

let coin_tests =
  let sharing = deal th43 in
  let shares_for name =
    List.init 4 (fun i -> (i, Coin.generate_share sharing ~party:i ~name))
  in
  [ Alcotest.test_case "coin shares verify" `Quick (fun () ->
        List.iter
          (fun (i, ss) ->
            Alcotest.(check bool) "valid" true
              (Coin.verify_share sharing ~party:i ~name:"c1" ss))
          (shares_for "c1"));
    Alcotest.test_case "coin share for wrong name rejected" `Quick (fun () ->
        let ss = Coin.generate_share sharing ~party:0 ~name:"c1" in
        Alcotest.(check bool) "wrong name" false
          (Coin.verify_share sharing ~party:0 ~name:"c2" ss));
    Alcotest.test_case "coin share from wrong party rejected" `Quick
      (fun () ->
        let ss = Coin.generate_share sharing ~party:0 ~name:"c1" in
        Alcotest.(check bool) "wrong party" false
          (Coin.verify_share sharing ~party:1 ~name:"c1" ss));
    Alcotest.test_case "coin consistent across qualified subsets" `Quick
      (fun () ->
        let name = "round-7" in
        let shares = shares_for name in
        let value avail =
          let sel = List.filter (fun (i, _) -> Pset.mem i avail) shares in
          Coin.combine sharing ~name ~avail sel ()
        in
        let subsets =
          [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 1; 2 ]; Pset.of_list [ 0; 3 ];
            Pset.of_list [ 0; 1; 2; 3 ] ]
        in
        match value (List.hd subsets) with
        | None -> Alcotest.fail "qualified subset rejected"
        | Some v ->
          List.iter
            (fun s ->
              Alcotest.(check (option int)) "same value" (Some v) (value s))
            subsets);
    Alcotest.test_case "coin unqualified subset fails" `Quick (fun () ->
        let name = "round-8" in
        let shares = shares_for name in
        let sel = List.filter (fun (i, _) -> i = 2) shares in
        Alcotest.(check (option int)) "singleton" None
          (Coin.combine sharing ~name ~avail:(Pset.singleton 2) sel ()));
    Alcotest.test_case "coin values vary with name" `Quick (fun () ->
        (* 32 independent coins: all-equal has probability 2^-31. *)
        let avail = Pset.of_list [ 0; 1 ] in
        let values =
          List.init 32 (fun k ->
              let name = "coin-" ^ string_of_int k in
              let sel =
                List.filter (fun (i, _) -> Pset.mem i avail) (shares_for name)
              in
              Coin.combine sharing ~name ~avail sel ())
        in
        Alcotest.(check bool) "not constant" false
          (List.for_all (fun v -> v = List.hd values) values));
    Alcotest.test_case "coin over example1 structure" `Quick (fun () ->
        let s1 = Canonical_structures.example1 () in
        let sharing1 = deal ~seed:77 s1 in
        let name = "gen-coin" in
        let all =
          List.init 9 (fun i -> (i, Coin.generate_share sharing1 ~party:i ~name))
        in
        List.iter
          (fun (i, ss) ->
            Alcotest.(check bool) "share ok" true
              (Coin.verify_share sharing1 ~party:i ~name ss))
          all;
        (* a qualified set: 3 servers covering 2 classes *)
        let q = Pset.of_list [ 0; 1; 4 ] in
        let sel = List.filter (fun (i, _) -> Pset.mem i q) all in
        (match Coin.combine sharing1 ~name ~avail:q sel () with
        | None -> Alcotest.fail "qualified set rejected"
        | Some v ->
          (* the whole class a is corruptible and must not predict it *)
          let bad = Pset.of_list [ 0; 1; 2; 3 ] in
          let selbad = List.filter (fun (i, _) -> Pset.mem i bad) all in
          Alcotest.(check (option int)) "class a cannot combine" None
            (Coin.combine sharing1 ~name ~avail:bad selbad ());
          ignore v));
    qtest ~count:20 "coin combine agrees for random qualified sets"
      QCheck2.Gen.(pair (small_string ~gen:printable) (int_bound 0x7F))
      (fun (name, set) ->
        let sharing7 = deal ~seed:5 th72 in
        let avail = set land 0x7F in
        let shares =
          List.filter_map
            (fun i ->
              if Pset.mem i avail then
                Some (i, Coin.generate_share sharing7 ~party:i ~name)
              else None)
            (List.init 7 Fun.id)
        in
        let r = Coin.combine sharing7 ~name ~avail shares () in
        if Pset.card avail >= 3 then r <> None else r = None)
  ]

let tdh2_tests =
  let sharing = deal ~seed:9 th43 in
  let rng () = Prng.create ~seed:123 in
  let checked ?(sh = sharing) ct = Option.get (Tdh2.check sh ct) in
  [ Alcotest.test_case "encrypt/decrypt roundtrip" `Quick (fun () ->
        let msg = "attack at dawn" in
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"client-1" msg in
        Alcotest.(check bool) "valid" true (Tdh2.is_valid sharing ct);
        let shares =
          List.filter_map
            (fun i ->
              Option.map (fun s -> (i, s))
                (Tdh2.decryption_share sharing ~party:i ct))
            [ 0; 2 ]
        in
        Alcotest.(check int) "both shared" 2 (List.length shares);
        List.iter
          (fun (i, s) ->
            Alcotest.(check bool) "share verifies" true
              (Tdh2.verify_share sharing ~party:i (checked ct) s))
          shares;
        Alcotest.(check (option string)) "decrypts" (Some msg)
          (Tdh2.combine sharing (checked ct) ~avail:(Pset.of_list [ 0; 2 ])
             shares));
    Alcotest.test_case "tampered ciphertext rejected" `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"l" "secret" in
        let bad = { ct with Tdh2.c = ct.Tdh2.c ^ "x" } in
        Alcotest.(check bool) "invalid" false (Tdh2.is_valid sharing bad);
        Alcotest.(check bool) "no share for invalid" true
          (Tdh2.decryption_share sharing ~party:0 bad = None));
    Alcotest.test_case "label is authenticated" `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"alice" "secret" in
        let bad = { ct with Tdh2.label = "mallory" } in
        Alcotest.(check bool) "label swap invalid" false
          (Tdh2.is_valid sharing bad));
    Alcotest.test_case "u is authenticated" `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"l" "secret" in
        let bad = { ct with Tdh2.u = G.mul ps ct.Tdh2.u ps.G.g } in
        Alcotest.(check bool) "u swap invalid" false (Tdh2.is_valid sharing bad));
    Alcotest.test_case "every tampered field yields no checked ciphertext"
      `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"l" "secret" in
        let from_bytes ct =
          Tdh2.checked_of_bytes sharing (Tdh2.ciphertext_to_bytes sharing ct)
        in
        Alcotest.(check bool) "honest record checks" true
          (Tdh2.check sharing ct <> None);
        Alcotest.(check bool) "honest bytes check" true (from_bytes ct <> None);
        (* p = 2q + 1 with q odd, so -1 is a non-residue and p - u lies
           outside the order-q subgroup: no record can hold it, and
           bytes naming it do not decode. *)
        let encode u =
          Ro.encode
            [ ct.Tdh2.c; ct.Tdh2.label; u; G.elt_to_bytes ps ct.Tdh2.u';
              B.to_bytes_be ct.Tdh2.e; B.to_bytes_be ct.Tdh2.f ]
        in
        let u = G.elt_to_bytes ps ct.Tdh2.u in
        Alcotest.(check string) "encoding rebuilt field by field"
          (Tdh2.ciphertext_to_bytes sharing ct) (encode u);
        let outside =
          encode
            (B.to_bytes_be ~len:(G.elt_len ps)
               (B.sub ps.G.p (B.of_bytes_be u)))
        in
        Alcotest.(check bool) "u outside the subgroup: bytes" true
          (Tdh2.ciphertext_of_bytes sharing outside = None
          && Tdh2.checked_of_bytes sharing outside = None);
        List.iter
          (fun (field, bad) ->
            Alcotest.(check bool) (field ^ ": record") true
              (Tdh2.check sharing bad = None);
            Alcotest.(check bool) (field ^ ": bytes") true (from_bytes bad = None))
          [ ( "u and u' swapped",
              { ct with Tdh2.u = ct.Tdh2.u'; u' = ct.Tdh2.u } );
            ("e + 1", { ct with Tdh2.e = B.add ct.Tdh2.e B.one });
            ("e - 1", { ct with Tdh2.e = B.sub ct.Tdh2.e B.one });
            ("f + 1", { ct with Tdh2.f = B.add ct.Tdh2.f B.one });
            ("f - 1", { ct with Tdh2.f = B.sub ct.Tdh2.f B.one });
            ("label", { ct with Tdh2.label = "m" });
            ("symmetric part", { ct with Tdh2.c = ct.Tdh2.c ^ "x" }) ]);
    Alcotest.test_case "bogus decryption share rejected" `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"l" "secret" in
        match Tdh2.decryption_share sharing ~party:0 ct with
        | None -> Alcotest.fail "honest share failed"
        | Some [ s ] ->
          let bad = { s with Tdh2.value = G.mul ps s.Tdh2.value ps.G.g } in
          Alcotest.(check bool) "rejected" false
            (Tdh2.verify_share sharing ~party:0 (checked ct) [ bad ])
        | Some _ -> Alcotest.fail "expected single leaf");
    Alcotest.test_case "unqualified cannot decrypt" `Quick (fun () ->
        let ct = Tdh2.encrypt sharing (rng ()) ~label:"l" "secret" in
        let shares =
          List.filter_map
            (fun i ->
              Option.map (fun s -> (i, s))
                (Tdh2.decryption_share sharing ~party:i ct))
            [ 3 ]
        in
        Alcotest.(check (option string)) "singleton fails" None
          (Tdh2.combine sharing (checked ct) ~avail:(Pset.singleton 3) shares));
    Alcotest.test_case "roundtrip over example2 structure" `Quick (fun () ->
        let s2 = Canonical_structures.example2 () in
        let sh2 = deal ~seed:21 s2 in
        let msg = "multi-site secret" in
        let ct = Tdh2.encrypt sh2 (rng ()) ~label:"notary" msg in
        (* survivors of a site+OS corruption can decrypt *)
        let bad = Canonical_structures.example2_site_plus_os ~row:2 ~col:1 in
        let good = Pset.complement 16 bad in
        let shares =
          List.filter_map
            (fun i ->
              if Pset.mem i good then
                Option.map (fun s -> (i, s)) (Tdh2.decryption_share sh2 ~party:i ct)
              else None)
            (List.init 16 Fun.id)
        in
        Alcotest.(check (option string)) "survivors decrypt" (Some msg)
          (Tdh2.combine sh2 (checked ~sh:sh2 ct) ~avail:good shares);
        (* the corrupted coalition cannot *)
        let badshares =
          List.filter_map
            (fun i ->
              if Pset.mem i bad then
                Option.map (fun s -> (i, s)) (Tdh2.decryption_share sh2 ~party:i ct)
              else None)
            (List.init 16 Fun.id)
        in
        Alcotest.(check (option string)) "coalition blocked" None
          (Tdh2.combine sh2 (checked ~sh:sh2 ct) ~avail:bad badshares));
    qtest ~count:20 "roundtrip random messages"
      QCheck2.Gen.(pair string (small_string ~gen:printable))
      (fun (msg, label) ->
        let r = Prng.create ~seed:(String.length msg + (7 * String.length label)) in
        let ct = Tdh2.encrypt sharing r ~label msg in
        let shares =
          List.filter_map
            (fun i ->
              Option.map (fun s -> (i, s))
                (Tdh2.decryption_share sharing ~party:i ct))
            [ 1; 3 ]
        in
        Tdh2.combine sharing (checked ct) ~avail:(Pset.of_list [ 1; 3 ]) shares
        = Some msg)
  ]

let rsa_tests =
  let keys = Rsa_threshold.deal ~bits:192 ~n:4 ~k:2 (Prng.create ~seed:31) in
  [ Alcotest.test_case "shares verify and combine" `Quick (fun () ->
        let msg = "certify: alice's key" in
        let shares =
          List.map (fun i -> Rsa_threshold.sign_share keys ~party:i msg) [ 0; 2 ]
        in
        List.iter
          (fun s ->
            Alcotest.(check bool) "share valid" true
              (Rsa_threshold.verify_share keys msg s))
          shares;
        (match Rsa_threshold.combine keys msg shares with
        | None -> Alcotest.fail "combine failed"
        | Some y ->
          Alcotest.(check bool) "signature valid" true
            (Rsa_threshold.verify keys.Rsa_threshold.pk msg y);
          Alcotest.(check bool) "wrong msg invalid" false
            (Rsa_threshold.verify keys.Rsa_threshold.pk "other" y)));
    Alcotest.test_case "different share subsets give same verdict" `Quick
      (fun () ->
        let msg = "stable" in
        let all =
          List.init 4 (fun i -> Rsa_threshold.sign_share keys ~party:i msg)
        in
        List.iter
          (fun pair ->
            let shares = List.filteri (fun i _ -> List.mem i pair) all in
            match Rsa_threshold.combine keys msg shares with
            | None -> Alcotest.fail "combine failed"
            | Some y ->
              Alcotest.(check bool) "valid" true
                (Rsa_threshold.verify keys.Rsa_threshold.pk msg y))
          [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ]);
    Alcotest.test_case "bogus share detected" `Quick (fun () ->
        let msg = "m" in
        let s = Rsa_threshold.sign_share keys ~party:1 msg in
        let bad = { s with Rsa_threshold.x = B.add s.Rsa_threshold.x B.one } in
        Alcotest.(check bool) "rejected" false
          (Rsa_threshold.verify_share keys msg bad));
    Alcotest.test_case "share for wrong message rejected" `Quick (fun () ->
        let s = Rsa_threshold.sign_share keys ~party:0 "msg-a" in
        Alcotest.(check bool) "rejected" false
          (Rsa_threshold.verify_share keys "msg-b" s));
    Alcotest.test_case "too few shares" `Quick (fun () ->
        let s = Rsa_threshold.sign_share keys ~party:0 "m" in
        Alcotest.(check bool) "none" true
          (Rsa_threshold.combine keys "m" [ s ] = None));
    Alcotest.test_case "dual-threshold variant (k=3 of 4)" `Quick (fun () ->
        let keys3 = Rsa_threshold.deal ~bits:192 ~n:4 ~k:3 (Prng.create ~seed:33) in
        let msg = "cbc-echo-certificate" in
        let shares =
          List.map (fun i -> Rsa_threshold.sign_share keys3 ~party:i msg) [ 0; 1; 3 ]
        in
        match Rsa_threshold.combine keys3 msg shares with
        | None -> Alcotest.fail "combine failed"
        | Some y ->
          Alcotest.(check bool) "valid" true
            (Rsa_threshold.verify keys3.Rsa_threshold.pk msg y))
  ]

let certsig_tests =
  let s1 = Canonical_structures.example1 () in
  let dl = deal ~seed:55 s1 in
  [ Alcotest.test_case "certificate over example1" `Quick (fun () ->
        let msg = "generalized signature" in
        let q = [ 0; 4; 6 ] (* 3 servers, 3 classes: qualified *) in
        let shares = List.map (fun i -> (i, Cert_sig.sign_share dl ~party:i msg)) q in
        (match Cert_sig.combine dl msg shares with
        | None -> Alcotest.fail "combine failed"
        | Some cert ->
          Alcotest.(check bool) "verifies" true (Cert_sig.verify dl msg cert);
          Alcotest.(check bool) "wrong msg fails" false
            (Cert_sig.verify dl "other" cert)));
    Alcotest.test_case "unqualified set cannot produce certificate" `Quick
      (fun () ->
        let msg = "m" in
        (* all of class a: corruptible, hence unqualified for sharing *)
        let q = [ 0; 1; 2; 3 ] in
        let shares = List.map (fun i -> (i, Cert_sig.sign_share dl ~party:i msg)) q in
        Alcotest.(check bool) "combine fails" true
          (Cert_sig.combine dl msg shares = None));
    Alcotest.test_case "combined value unique across signer sets" `Quick
      (fun () ->
        let msg = "uniqueness" in
        let combined q =
          let shares =
            List.map (fun i -> (i, Cert_sig.sign_share dl ~party:i msg)) q
          in
          match Cert_sig.combine dl msg shares with
          | Some c -> c.Cert_sig.combined
          | None -> Alcotest.fail "combine failed"
        in
        Alcotest.(check bool) "same sigma" true
          (G.elt_equal (combined [ 0; 4; 6 ]) (combined [ 1; 5; 8 ])));
    Alcotest.test_case "forged share detected" `Quick (fun () ->
        let msg = "m" in
        match Cert_sig.sign_share dl ~party:0 msg with
        | [] -> Alcotest.fail "expected at least one leaf for party 0"
        | s :: rest ->
          let bad = { s with Cert_sig.value = G.mul ps s.Cert_sig.value ps.G.g } in
          Alcotest.(check bool) "rejected" false
            (Cert_sig.verify_share dl ~party:0 msg (bad :: rest)))
  ]

let keyring_tests =
  [ Alcotest.test_case "keyring end-to-end (threshold)" `Quick (fun () ->
        let kr = Keyring.deal ~rsa_bits:192 ~seed:71 th43 in
        let msg = "service answer" in
        let shares =
          List.map (fun i -> Keyring.service_sign_share kr ~party:i msg) [ 1; 2 ]
        in
        List.iteri
          (fun idx s ->
            let party = List.nth [ 1; 2 ] idx in
            Alcotest.(check bool) "share ok" true
              (Keyring.service_verify_share kr ~party msg s))
          shares;
        (match Keyring.service_combine kr msg shares with
        | None -> Alcotest.fail "combine failed"
        | Some s ->
          Alcotest.(check bool) "service sig ok" true
            (Keyring.service_verify kr msg s));
        (* plain per-party signatures *)
        let psig = Keyring.sign kr ~party:3 "proposal" in
        Alcotest.(check bool) "party sig ok" true
          (Keyring.verify_party_signature kr ~party:3 "proposal" psig);
        Alcotest.(check bool) "party sig wrong party" false
          (Keyring.verify_party_signature kr ~party:2 "proposal" psig));
    Alcotest.test_case "keyring end-to-end (example2)" `Quick (fun () ->
        let kr = Keyring.deal ~seed:72 (Canonical_structures.example2 ()) in
        let msg = "grid service answer" in
        let q = [ 0; 1; 4; 5 ] (* 2x2 block: qualified *) in
        let shares =
          List.map (fun i -> Keyring.service_sign_share kr ~party:i msg) q
        in
        match Keyring.service_combine kr msg shares with
        | None -> Alcotest.fail "combine failed"
        | Some s ->
          Alcotest.(check bool) "service sig ok" true
            (Keyring.service_verify kr msg s));
    Alcotest.test_case
      "service combine returns only signatures that pass service_verify"
      `Quick (fun () ->
        (* Callers accept a combined signature without re-checking it,
           so every one combine returns must pass the public check, also
           when a bad share forces the subset search or the pruning. *)
        let passes kr msg ~label ~bad shares =
          match Keyring.service_combine_attributed kr msg shares with
          | None, _ -> Alcotest.failf "%s: no signature" label
          | Some s, named ->
            Alcotest.(check (list int)) (label ^ ": bad signers") bad
              (List.sort compare named);
            Alcotest.(check bool) (label ^ ": passes service_verify") true
              (Keyring.service_verify kr msg s)
        in
        let kr = Keyring.deal ~rsa_bits:192 ~seed:73 th43 in
        let msg = "reply statement" in
        let bare p = Keyring.service_reply_share kr ~party:p msg in
        let proved p = Keyring.service_sign_share kr ~party:p msg in
        let corrupt = function
          | Keyring.Rsa_share s ->
            Keyring.Rsa_share { s with Rsa_threshold.x = B.add s.Rsa_threshold.x B.one }
          | Keyring.Cert_share _ as s -> s
        in
        passes kr msg ~label:"rsa bare" ~bad:[] [ bare 0; bare 1 ];
        passes kr msg ~label:"rsa proved" ~bad:[] [ proved 2; proved 3 ];
        passes kr msg ~label:"rsa one bad, subset search" ~bad:[ 0 ]
          [ corrupt (bare 0); bare 1; bare 2 ];
        let before = Rsa_threshold.combine_attempts () in
        passes kr msg ~label:"rsa bad share last" ~bad:[ 3 ]
          [ bare 1; corrupt (bare 3); bare 2 ];
        Alcotest.(check bool) "the bad set searched subsets" true
          (Rsa_threshold.combine_attempts () - before > 1);
        let kr = Keyring.deal ~seed:74 (Canonical_structures.example2 ()) in
        let share p = Keyring.service_sign_share kr ~party:p msg in
        let forge = function
          | Keyring.Cert_share (p, s :: rest) ->
            Keyring.Cert_share
              ( p,
                { s with
                  Cert_sig.value =
                    G.mul kr.Keyring.group s.Cert_sig.value
                      kr.Keyring.group.G.g }
                :: rest )
          | s -> s
        in
        let relabel p = function
          | Keyring.Cert_share (_, ss) -> Keyring.Cert_share (p, ss)
          | s -> s
        in
        let block = [ 0; 1; 4; 5 ] in
        passes kr msg ~label:"cert honest" ~bad:[] (List.map share block);
        passes kr msg ~label:"cert one bad, pruned" ~bad:[ 2 ]
          (forge (share 2) :: List.map share (block @ [ 6 ]));
        passes kr msg ~label:"cert leaves of another signer" ~bad:[ 6 ]
          (relabel 6 (share 5) :: List.map share block);
        let out_of_range = function
          | Keyring.Cert_share (p, s :: rest) ->
            Keyring.Cert_share (p, { s with Cert_sig.leaf = 1_000_000 } :: rest)
          | s -> s
        in
        passes kr msg ~label:"cert leaf out of range" ~bad:[ 6 ]
          (out_of_range (share 6) :: List.map share block))
  ]

(* Golden digest over every share-producing scheme of a threshold
   keyring: Schnorr party signatures, coin and TDH2 decryption shares
   (value and DLEQ response), RSA signature shares (x and proof), and the
   verdicts and combined values they lead to, at n = 4 and n = 7.  Client
   replies combine before they check a share, so an exponentiation change
   that produced a wrong proof would pass every end-to-end gate; this
   digest was captured before the fixed-base tables moved to Montgomery
   form and must never change. *)
let golden_crypto_digest =
  "74c687cca6e39cde2fc47a1766a93722b4c09d7e24a3c915cb2f0266854de9de"

let golden_prime_digest =
  "5a338b94d13871a2444a7d5f936028121e0b05cf92879b556bad1dc40ab2117b"

let crypto_transcript ~n ~t ~seed =
  let kr = Keyring.deal ~rsa_bits:192 ~seed (AS.threshold ~n ~t) in
  let gp = kr.Keyring.group in
  let buf = Buffer.create 4096 in
  let num v = Buffer.add_string buf (B.to_hex v ^ ";") in
  let elt v = num (B.of_bytes_be (G.elt_to_bytes gp v)) in
  let flag b = Buffer.add_string buf (if b then "T;" else "F;") in
  let dleq_shares (shs : Share_batch.share list) =
    List.iter
      (fun (s : Share_batch.share) ->
        Buffer.add_string buf (string_of_int s.leaf ^ ":");
        elt s.value;
        num s.proof.Dleq.c;
        num s.proof.Dleq.z)
      shs
  in
  let parties = List.init n Fun.id in
  let msg = Printf.sprintf "golden %d/%d" n t in
  List.iter
    (fun party ->
      let sg = Keyring.sign kr ~party msg in
      num sg.Schnorr_sig.c;
      num sg.Schnorr_sig.z;
      flag (Keyring.verify_party_signature kr ~party msg sg);
      flag
        (Keyring.verify_party_signature kr ~party msg
           { sg with Schnorr_sig.c = B.add_mod sg.Schnorr_sig.c B.one gp.G.q }))
    parties;
  let name = "golden-coin" in
  let coin = List.map (fun p -> (p, Coin.generate_share kr.Keyring.coin ~party:p ~name)) parties in
  List.iter
    (fun (p, shs) ->
      dleq_shares shs;
      flag (Coin.verify_share kr.Keyring.coin ~party:p ~name shs))
    coin;
  (match
     Coin.combine kr.Keyring.coin ~name ~avail:(Pset.of_list parties) coin
       ~bits:30 ()
   with
  | Some v -> num (B.of_int v)
  | None -> Buffer.add_string buf "no-coin;");
  let ct =
    Tdh2.encrypt kr.Keyring.enc (Prng.create ~seed:(seed + 1)) ~label:"golden"
      "golden plaintext"
  in
  flag (Tdh2.is_valid kr.Keyring.enc ct);
  let checked = Option.get (Tdh2.check kr.Keyring.enc ct) in
  let dec =
    List.filter_map
      (fun p ->
        Option.map (fun shs -> (p, shs))
          (Tdh2.decryption_share kr.Keyring.enc ~party:p ct))
      parties
  in
  List.iter
    (fun (p, shs) ->
      dleq_shares shs;
      flag (Tdh2.verify_share kr.Keyring.enc ~party:p checked shs))
    dec;
  Buffer.add_string buf
    (Option.value ~default:"no-plaintext"
       (Tdh2.combine kr.Keyring.enc checked ~avail:(Pset.of_list parties) dec));
  let rsa = List.map (fun p -> (p, Keyring.service_sign_share kr ~party:p msg)) parties in
  List.iter
    (fun (p, sh) ->
      (match sh with
      | Keyring.Rsa_share s -> (
        num s.Rsa_threshold.x;
        match s.Rsa_threshold.proof with
        | Some pf ->
          num pf.Rsa_threshold.c;
          num pf.Rsa_threshold.z
        | None -> Buffer.add_string buf "no-proof;")
      | Keyring.Cert_share _ -> Buffer.add_string buf "cert-share;");
      flag (Keyring.service_verify_share kr ~party:p msg sh))
    rsa;
  (match Keyring.service_combine kr msg (List.map snd rsa) with
  | Some s ->
    Buffer.add_string buf (Sha256.to_hex (Keyring.service_signature_to_bytes kr s));
    flag (Keyring.service_verify kr msg s)
  | None -> Buffer.add_string buf "no-signature;");
  Buffer.contents buf

let golden_tests =
  [ Alcotest.test_case "golden crypto digest (n=4, n=7)" `Quick (fun () ->
        let digest =
          Sha256.to_hex
            (Sha256.digest_list
               [ crypto_transcript ~n:4 ~t:1 ~seed:1901;
                 crypto_transcript ~n:7 ~t:2 ~seed:1902 ])
        in
        Alcotest.(check string) "golden digest" golden_crypto_digest digest);
    (* The dealer's prime searches pinned value for value: which
       candidates reach Miller-Rabin, and in what order, decides every
       PRNG draw after them, so a faster screen must keep all of these.
       Captured before the trial division moved to native ints. *)
    Alcotest.test_case "golden prime digest (searches, tests, dealt RSA moduli)"
      `Quick (fun () ->
        let buf = Buffer.create 8192 in
        let num v = Buffer.add_string buf (B.to_hex v ^ ";") in
        List.iter
          (fun seed ->
            let rng = Prng.create ~seed in
            for bits = 5 to 40 do
              let p, q = Primes.random_safe_prime rng ~bits in
              num p;
              num q
            done;
            for bits = 3 to 40 do
              num (Primes.random_prime rng ~bits)
            done;
            List.iter
              (fun base ->
                for v = base to base + 2000 do
                  Buffer.add_char buf
                    (if Primes.is_probable_prime rng (B.of_int v) then 'T' else 'F')
                done)
              [ 0; 1_000_000; 1 lsl 40 ])
          [ 1; 2; 3 ];
        num (fst (Primes.random_safe_prime (Prng.create ~seed:4) ~bits:256));
        List.iter
          (fun seed ->
            let kr = Keyring.deal ~rsa_bits:192 ~seed (AS.threshold ~n:4 ~t:1) in
            match kr.Keyring.service with
            | Keyring.Rsa_keys k ->
              num kr.Keyring.group.G.p;
              num k.Rsa_threshold.pk.Rsa_threshold.n_modulus
            | Keyring.Cert_keys _ -> Alcotest.fail "threshold structure dealt cert keys")
          (List.init 8 (fun i -> 8_000 + i));
        Alcotest.(check string) "golden digest" golden_prime_digest
          (Sha256.to_hex (Sha256.digest (Buffer.contents buf))))
  ]

let batch_tests =
  (* Synthetic DLEQ batches over a shared base pair, mirroring the shape
     the share schemes produce (same g1 = g and g2 across the batch). *)
  let mk_batch ?(k = 6) ~seed ~domain () =
    let rng = Prng.create ~seed in
    let g2 = G.hash_to_elt ps ~domain:"batch-base" [ "b" ] in
    List.init k (fun _ ->
        let x = G.random_exponent ps rng in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 x in
        let p = Dleq.prove ps ~domain ~x ~g1:ps.G.g ~h1 ~g2 ~h2 in
        ({ Dleq.g1 = ps.G.g; h1; g2; h2 }, p))
  in
  let corrupt_at i f = List.mapi (fun j sp -> if j = i then f sp else sp) in
  let bad_z (s, (p : Dleq.t)) =
    (s, { p with Dleq.z = B.add_mod p.Dleq.z B.one ps.G.q })
  in
  let bad_h2 ((s : Dleq.statement), p) =
    ({ s with Dleq.h2 = G.mul ps s.Dleq.h2 ps.G.g }, p)
  in
  [ Alcotest.test_case "batch accepts honest proofs" `Quick (fun () ->
        let batch = mk_batch ~seed:101 ~domain:"bt" () in
        Alcotest.(check bool) "accepts" true
          (Dleq.batch_verify ps ~domain:"bt" batch);
        Alcotest.(check (list int)) "nothing to attribute" []
          (Dleq.batch_find_bad ps ~domain:"bt" batch));
    Alcotest.test_case "batch rejects corrupted response, bisection attributes"
      `Quick (fun () ->
        let batch = corrupt_at 3 bad_z (mk_batch ~seed:102 ~domain:"bt" ()) in
        Alcotest.(check bool) "rejects" false
          (Dleq.batch_verify ps ~domain:"bt" batch);
        Alcotest.(check (list int)) "index 3" [ 3 ]
          (Dleq.batch_find_bad ps ~domain:"bt" batch));
    Alcotest.test_case "batch attributes tampered statement" `Quick (fun () ->
        let batch = corrupt_at 1 bad_h2 (mk_batch ~seed:103 ~domain:"bt" ()) in
        Alcotest.(check bool) "rejects" false
          (Dleq.batch_verify ps ~domain:"bt" batch);
        Alcotest.(check (list int)) "index 1" [ 1 ]
          (Dleq.batch_find_bad ps ~domain:"bt" batch));
    Alcotest.test_case "batch attributes multiple corruptions" `Quick (fun () ->
        let batch =
          corrupt_at 4 bad_h2
            (corrupt_at 1 bad_z (mk_batch ~seed:104 ~domain:"bt" ()))
        in
        Alcotest.(check (list int)) "both indices" [ 1; 4 ]
          (Dleq.batch_find_bad ps ~domain:"bt" batch));
    Alcotest.test_case "batch-poisoning commitments are attributed" `Quick
      (fun () ->
        (* A proof whose (c, z) pair is valid but whose carried
           commitments are garbage passes the classic per-proof check
           (which ignores them) yet must never survive the batch path:
           the hash re-check binds the commitments to the challenge. *)
        let batch = mk_batch ~seed:105 ~domain:"bt" () in
        let poison ((s : Dleq.statement), (p : Dleq.t)) =
          (s, { p with Dleq.a1 = G.mul ps p.Dleq.a1 ps.G.g })
        in
        let batch' = corrupt_at 2 poison batch in
        let s2, p2 = List.nth batch' 2 in
        Alcotest.(check bool) "classic verify still passes" true
          (Dleq.verify ps ~domain:"bt" ~g1:s2.Dleq.g1 ~h1:s2.Dleq.h1
             ~g2:s2.Dleq.g2 ~h2:s2.Dleq.h2 p2);
        Alcotest.(check bool) "verify_one rejects" false
          (Dleq.verify_one ps ~domain:"bt" (s2, p2));
        Alcotest.(check bool) "batch rejects" false
          (Dleq.batch_verify ps ~domain:"bt" batch');
        Alcotest.(check (list int)) "attributed" [ 2 ]
          (Dleq.batch_find_bad ps ~domain:"bt" batch'));
    Alcotest.test_case "lazy coin combine prunes corrupted party" `Quick
      (fun () ->
        let sharing = deal ~seed:91 th43 in
        let name = "lazy-coin" in
        let shares =
          List.init 3 (fun i -> (i, Coin.generate_share sharing ~party:i ~name))
        in
        let corrupt =
          List.map
            (fun (i, ss) ->
              if i = 1 then
                ( i,
                  List.map
                    (fun (s : Coin.share) ->
                      { s with Coin.value = G.mul ps s.Coin.value ps.G.g })
                    ss )
              else (i, ss))
            shares
        in
        let expected =
          Coin.combine sharing ~name ~avail:(Pset.of_list [ 0; 2 ])
            (List.filter (fun (i, _) -> i <> 1) shares)
            ()
        in
        Alcotest.(check bool) "honest pair combines" true (expected <> None);
        let got =
          Coin.combine sharing ~name ~avail:(Pset.of_list [ 0; 1; 2 ]) corrupt ()
        in
        Alcotest.(check (option int)) "pruned combine agrees" expected got);
    Alcotest.test_case "lazy tdh2 combine prunes corrupted party" `Quick
      (fun () ->
        let sharing = deal ~seed:93 th43 in
        let msg = "lazy tdh2 plaintext" in
        let ct = Tdh2.encrypt sharing (Prng.create ~seed:7) ~label:"l" msg in
        let shares =
          List.filter_map
            (fun i ->
              Option.map (fun s -> (i, s))
                (Tdh2.decryption_share sharing ~party:i ct))
            [ 0; 1; 2 ]
        in
        let corrupt =
          List.map
            (fun (i, ss) ->
              if i = 2 then
                ( i,
                  List.map
                    (fun (s : Tdh2.dec_share) ->
                      { s with Tdh2.value = G.mul ps s.Tdh2.value ps.G.g })
                    ss )
              else (i, ss))
            shares
        in
        Alcotest.(check (option string)) "decrypts despite corruption"
          (Some msg)
          (Tdh2.combine sharing (Option.get (Tdh2.check sharing ct))
             ~avail:(Pset.of_list [ 0; 1; 2 ]) corrupt));
    Alcotest.test_case "lazy rsa combine falls back past bad share" `Quick
      (fun () ->
        let keys = Rsa_threshold.deal ~bits:192 ~n:4 ~k:2 (Prng.create ~seed:37) in
        let msg = "lazy-rsa" in
        let shares =
          List.map
            (fun i -> Rsa_threshold.sign_share keys ~party:i msg)
            [ 0; 1; 2 ]
        in
        (* party 0 sits inside the first k chosen shares, so the
           optimistic combine fails and the fallback must re-select *)
        let shares =
          List.map
            (fun (s : Rsa_threshold.share) ->
              if s.Rsa_threshold.signer = 0 then
                { s with Rsa_threshold.x = B.add s.Rsa_threshold.x B.one }
              else s)
            shares
        in
        match Rsa_threshold.combine keys msg shares with
        | None -> Alcotest.fail "lazy combine failed"
        | Some y ->
          Alcotest.(check bool) "valid signature" true
            (Rsa_threshold.verify keys.Rsa_threshold.pk msg y));
    Alcotest.test_case "batched verify_share agrees with per-proof Dleq.verify"
      `Quick (fun () ->
        let s1 = Canonical_structures.example1 () in
        let sharing = deal ~seed:94 s1 in
        let name = "eb-coin" in
        (* a party owning at least two leaves, so the batch path engages *)
        let party, ss =
          let rec find i =
            if i >= 9 then Alcotest.fail "no multi-leaf party in example1"
            else
              let ss = Coin.generate_share sharing ~party:i ~name in
              if List.length ss >= 2 then (i, ss) else find (i + 1)
          in
          find 0
        in
        (* the reference: every proof checked on its own *)
        let per_proof (ss : Coin.share list) =
          List.for_all
            (fun (s : Coin.share) ->
              Dleq.verify ps ~domain:"sintra/coin/share" ~g1:ps.G.g
                ~h1:sharing.Dl_sharing.leaf_keys.(s.Coin.leaf)
                ~g2:(Coin.coin_base sharing ~name) ~h2:s.Coin.value
                s.Coin.proof)
            ss
        in
        let corrupt f = function
          | s :: rest -> f s :: rest
          | [] -> assert false
        in
        let bad_value =
          corrupt
            (fun s -> { s with Coin.value = G.mul ps s.Coin.value ps.G.g })
            ss
        in
        let bad_z =
          corrupt
            (fun s ->
              let p = s.Coin.proof in
              { s with
                Coin.proof =
                  { p with Dleq.z = B.add_mod p.Dleq.z B.one ps.G.q } })
            ss
        in
        List.iter
          (fun (label, ss, expected) ->
            Alcotest.(check bool) (label ^ " (per proof)") expected
              (per_proof ss);
            Obs_crypto.enable ();
            Fun.protect ~finally:Obs_crypto.disable (fun () ->
                Obs_crypto.reset ();
                Alcotest.(check bool) (label ^ " (batched)") expected
                  (Coin.verify_share sharing ~party ~name ss);
                Alcotest.(check int) (label ^ ": one batched check") 1
                  (Obs_crypto.count Obs_crypto.Batch_verify)))
          [ ("honest", ss, true);
            ("corrupted value", bad_value, false);
            ("corrupted response", bad_z, false) ]);
    Alcotest.test_case "lazy counters: batch size, hit, recomb cache" `Quick
      (fun () ->
        let sharing = deal ~seed:92 th43 in
        let name = "obs-coin" in
        let shares =
          List.init 2 (fun i -> (i, Coin.generate_share sharing ~party:i ~name))
        in
        let avail = Pset.of_list [ 0; 1 ] in
        Obs_crypto.enable ();
        Fun.protect ~finally:Obs_crypto.disable (fun () ->
            Obs_crypto.reset ();
            let v = Coin.combine sharing ~name ~avail shares () in
            Alcotest.(check bool) "combined" true (v <> None);
            Alcotest.(check int) "one batched check" 1
              (Obs_crypto.count Obs_crypto.Batch_verify);
            Alcotest.(check int) "covers both proofs" 2
              (Obs_crypto.count Obs_crypto.Batch_verify_size);
            Alcotest.(check int) "optimistic hit" 1
              (Obs_crypto.count Obs_crypto.Lazy_verify_hit);
            Alcotest.(check int) "no fallback" 0
              (Obs_crypto.count Obs_crypto.Batch_verify_fallback);
            Alcotest.(check bool) "recomb cache warmed" true
              (Obs_crypto.count Obs_crypto.Recomb_cache_hit > 0);
            let misses = Obs_crypto.count Obs_crypto.Recomb_cache_miss in
            let v2 = Coin.combine sharing ~name ~avail shares () in
            Alcotest.(check (option int)) "same coin" v v2;
            Alcotest.(check int) "vector served from cache" misses
              (Obs_crypto.count Obs_crypto.Recomb_cache_miss)))
  ]

(* Replies carry bare RSA shares and a failed combine searches the
   k-subsets (in signer order) for one that verifies. *)
let reply_share_tests =
  let rsa_keys kr =
    match kr.Keyring.service with
    | Keyring.Rsa_keys keys -> keys
    | Keyring.Cert_keys _ -> Alcotest.fail "expected RSA service keys"
  in
  (* n = 7, k = 3: the shares of [parties], with [bad] ones off by one. *)
  let keys7 = lazy (Rsa_threshold.deal ~bits:192 ~n:7 ~k:3 (Prng.create ~seed:41)) in
  let shares7 ~bad msg parties =
    List.map
      (fun p ->
        let s = Rsa_threshold.bare_share (Lazy.force keys7) ~party:p msg in
        if List.mem p bad then { s with Rsa_threshold.x = B.add s.Rsa_threshold.x B.one }
        else s)
      parties
  in
  let binomial n k =
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1
  in
  [ Alcotest.test_case "bare share x equals the proved share's (golden keys)"
      `Quick (fun () ->
        List.iter
          (fun (n, t, seed) ->
            let kr = Keyring.deal ~rsa_bits:192 ~seed (AS.threshold ~n ~t) in
            let keys = rsa_keys kr in
            let msg = Printf.sprintf "golden %d/%d" n t in
            for p = 0 to n - 1 do
              let counted f =
                Obs_crypto.enable ();
                Obs_crypto.reset ();
                Fun.protect
                  ~finally:(fun () ->
                    Obs_crypto.disable ();
                    Obs_crypto.reset ())
                  (fun () ->
                    let s = f () in
                    ( s,
                      Obs_crypto.count Obs_crypto.Sign,
                      Obs_crypto.count Obs_crypto.Share_proof ))
              in
              let bare, bare_signs, bare_proofs =
                counted (fun () -> Rsa_threshold.bare_share keys ~party:p msg)
              in
              let proved, proved_signs, proved_proofs =
                counted (fun () -> Rsa_threshold.sign_share keys ~party:p msg)
              in
              Alcotest.(check (pair int int)) "bare: one sign, no proof" (1, 0)
                (bare_signs, bare_proofs);
              Alcotest.(check (pair int int)) "proved: one sign, one proof" (1, 1)
                (proved_signs, proved_proofs);
              Alcotest.(check bool) "same x" true
                (B.equal bare.Rsa_threshold.x proved.Rsa_threshold.x);
              Alcotest.(check bool) "no proof" true (bare.Rsa_threshold.proof = None);
              Alcotest.(check bool) "bare share never verifies" false
                (Rsa_threshold.verify_share keys msg bare);
              match Keyring.service_reply_share kr ~party:p msg with
              | Keyring.Rsa_share s ->
                Alcotest.(check bool) "keyring reply share is the bare share" true
                  (B.equal s.Rsa_threshold.x bare.Rsa_threshold.x
                  && s.Rsa_threshold.proof = None)
              | Keyring.Cert_share _ -> Alcotest.fail "expected an RSA share"
            done)
          [ (4, 1, 1901); (7, 2, 1902) ]);
    Alcotest.test_case "t bad bare shares first (n=7): subset search names them"
      `Quick (fun () ->
        let keys = Lazy.force keys7 in
        (* [expected]: the first three given, the subsets before the
           first verifying one, and one swap per share above its top;
           a share below the top costs nothing. *)
        List.iter
          (fun (bad, expected) ->
            let msg = Printf.sprintf "search %s" (String.concat "," (List.map string_of_int bad)) in
            let honest = List.filter (fun p -> not (List.mem p bad)) (List.init 7 Fun.id) in
            let before = Rsa_threshold.combine_attempts () in
            let y, named =
              Rsa_threshold.combine_attributed keys msg (shares7 ~bad msg (bad @ honest))
            in
            let tried = Rsa_threshold.combine_attempts () - before in
            (match y with
            | None -> Alcotest.fail "no signature despite k honest shares"
            | Some y ->
              Alcotest.(check bool) "signature verifies" true
                (Rsa_threshold.verify keys.Rsa_threshold.pk msg y));
            Alcotest.(check (list int)) "exactly the bad signers" bad named;
            Alcotest.(check int) "combinations" expected tried;
            Alcotest.(check bool) "at most C(7,3)" true (tried <= binomial 7 3))
          [ ([ 0; 1 ], 28); ([ 4; 6 ], 6); ([ 2; 5 ], 6); ([ 5; 6 ], 6) ]);
    Alcotest.test_case "all-honest shares combine once and name nobody" `Quick
      (fun () ->
        let keys = Lazy.force keys7 in
        let before = Rsa_threshold.combine_attempts () in
        let y, named =
          Rsa_threshold.combine_attributed keys "honest"
            (shares7 ~bad:[] "honest" [ 6; 2; 4; 0; 1 ])
        in
        Alcotest.(check bool) "combined" true (y <> None);
        Alcotest.(check (list int)) "nobody named" [] named;
        Alcotest.(check int) "one combination" 1
          (Rsa_threshold.combine_attempts () - before));
    Alcotest.test_case "too few good shares: no signature, nobody named" `Quick
      (fun () ->
        let keys = Lazy.force keys7 in
        let before = Rsa_threshold.combine_attempts () in
        let y, named =
          Rsa_threshold.combine_attributed keys "short"
            (shares7 ~bad:[ 1; 3; 5 ] "short" [ 1; 3; 0; 2; 5 ])
        in
        Alcotest.(check bool) "no signature" true (y = None);
        Alcotest.(check (list int)) "nobody named" [] named;
        Alcotest.(check int) "every subset tried once" (binomial 5 3)
          (Rsa_threshold.combine_attempts () - before));
    Alcotest.test_case "a proved share over the wrong statement is found" `Quick
      (fun () ->
        let keys = Rsa_threshold.deal ~bits:192 ~n:4 ~k:2 (Prng.create ~seed:43) in
        let msg = "the statement" in
        let shares =
          Rsa_threshold.sign_share keys ~party:1 "another statement"
          :: List.map (fun p -> Rsa_threshold.bare_share keys ~party:p msg) [ 3; 0; 2 ]
        in
        match Rsa_threshold.combine_attributed keys msg shares with
        | None, _ -> Alcotest.fail "no signature"
        | Some y, named ->
          Alcotest.(check bool) "verifies" true
            (Rsa_threshold.verify keys.Rsa_threshold.pk msg y);
          Alcotest.(check (list int)) "wrong-statement signer named" [ 1 ] named)
  ]

let suite =
  ( "crypto",
    dleq_tests @ coin_tests @ tdh2_tests @ rsa_tests @ certsig_tests
    @ keyring_tests @ golden_tests @ reply_share_tests @ batch_tests )
