(* Scale and determinism checks for the crypto layer: larger RSA
   committees, multi-bit coins, kilobyte TDH2 payloads, and dealer
   reproducibility. *)

module B = Bignum
module AS = Adversary_structure

let tests =
  [ Alcotest.test_case "rsa threshold at n=10, k=4: disjoint share subsets"
      `Quick (fun () ->
        let keys = Rsa_threshold.deal ~bits:192 ~n:10 ~k:4 (Prng.create ~seed:90) in
        let msg = "scale test" in
        let share i = Rsa_threshold.sign_share keys ~party:i msg in
        List.iter
          (fun subset ->
            let shares = List.map share subset in
            List.iter
              (fun s ->
                Alcotest.(check bool) "share valid" true
                  (Rsa_threshold.verify_share keys msg s))
              shares;
            match Rsa_threshold.combine keys msg shares with
            | None -> Alcotest.fail "combine failed"
            | Some y ->
              Alcotest.(check bool) "signature valid" true
                (Rsa_threshold.verify keys.Rsa_threshold.pk msg y))
          [ [ 0; 1; 2; 3 ]; [ 6; 7; 8; 9 ]; [ 0; 3; 5; 9 ]; [ 2; 4; 6; 8 ] ];
        (* three shares are not enough *)
        Alcotest.(check bool) "k-1 refused" true
          (Rsa_threshold.combine keys msg (List.map share [ 0; 1; 2 ]) = None));
    Alcotest.test_case "coin with 8-bit output: in range, varies, consistent"
      `Quick (fun () ->
        let ps = Schnorr_group.default ~bits:96 () in
        let sharing =
          Dl_sharing.deal ps (AS.threshold ~n:4 ~t:1) (Prng.create ~seed:91)
        in
        let values =
          List.init 40 (fun k ->
              let name = "wide-coin-" ^ string_of_int k in
              let shares =
                List.init 2 (fun i ->
                    (i, Coin.generate_share sharing ~party:i ~name))
              in
              let a =
                Coin.combine sharing ~name ~avail:(Pset.of_list [ 0; 1 ])
                  shares ~bits:8 ()
              in
              (* a different qualified subset must agree *)
              let shares' =
                List.init 2 (fun i ->
                    (i + 2, Coin.generate_share sharing ~party:(i + 2) ~name))
              in
              let b =
                Coin.combine sharing ~name ~avail:(Pset.of_list [ 2; 3 ])
                  shares' ~bits:8 ()
              in
              Alcotest.(check bool) "consistent" true (a = b);
              match a with
              | Some v ->
                Alcotest.(check bool) "in range" true (v >= 0 && v < 256);
                v
              | None -> Alcotest.fail "combine failed")
        in
        Alcotest.(check bool) "values vary" true
          (List.length (List.sort_uniq compare values) > 8));
    Alcotest.test_case "tdh2 handles a 10 kB payload" `Quick (fun () ->
        let ps = Schnorr_group.default ~bits:96 () in
        let sharing =
          Dl_sharing.deal ps (AS.threshold ~n:4 ~t:1) (Prng.create ~seed:92)
        in
        let msg = String.init 10_240 (fun i -> Char.chr (i mod 251)) in
        let ct = Tdh2.encrypt sharing (Prng.create ~seed:1) ~label:"big" msg in
        let shares =
          List.filter_map
            (fun i ->
              Option.map (fun s -> (i, s)) (Tdh2.decryption_share sharing ~party:i ct))
            [ 1; 2 ]
        in
        Alcotest.(check (option string)) "roundtrip" (Some msg)
          (Tdh2.combine sharing (Option.get (Tdh2.check sharing ct))
             ~avail:(Pset.of_list [ 1; 2 ]) shares));
    Alcotest.test_case "dealer determinism: same seed, same public material"
      `Quick (fun () ->
        let s = AS.threshold ~n:4 ~t:1 in
        let a = Keyring.deal ~rsa_bits:192 ~seed:93 s in
        let b = Keyring.deal ~rsa_bits:192 ~seed:93 s in
        let c = Keyring.deal ~rsa_bits:192 ~seed:94 s in
        Alcotest.(check bool) "same coin public key" true
          (Schnorr_group.elt_equal a.Keyring.coin.Dl_sharing.public_key
             b.Keyring.coin.Dl_sharing.public_key);
        Alcotest.(check bool) "same party key 0" true
          (Schnorr_group.elt_equal
             (Keyring.party_public_key a 0)
             (Keyring.party_public_key b 0));
        Alcotest.(check bool) "different seed differs" false
          (Schnorr_group.elt_equal a.Keyring.coin.Dl_sharing.public_key
             c.Keyring.coin.Dl_sharing.public_key);
        (match (a.Keyring.service, b.Keyring.service) with
        | Keyring.Rsa_keys ka, Keyring.Rsa_keys kb ->
          Alcotest.(check bool) "same RSA modulus" true
            (B.equal ka.Rsa_threshold.pk.Rsa_threshold.n_modulus
               kb.Rsa_threshold.pk.Rsa_threshold.n_modulus)
        | _ -> Alcotest.fail "expected RSA service keys"));
    Alcotest.test_case "signatures do not verify across keyrings" `Quick
      (fun () ->
        let s = AS.threshold ~n:4 ~t:1 in
        let a = Keyring.deal ~rsa_bits:192 ~seed:95 s in
        let b = Keyring.deal ~rsa_bits:192 ~seed:96 s in
        let sg = Keyring.sign a ~party:0 "msg" in
        Alcotest.(check bool) "own keyring ok" true
          (Keyring.verify_party_signature a ~party:0 "msg" sg);
        Alcotest.(check bool) "foreign keyring rejects" false
          (Keyring.verify_party_signature b ~party:0 "msg" sg))
  ]

let suite = ("crypto-scale", tests)
