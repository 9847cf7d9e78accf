(* SHA-256 known-answer tests (FIPS / NIST vectors) and random-oracle
   helper properties. *)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let unit_tests =
  [ Alcotest.test_case "NIST vectors" `Quick (fun () ->
        let cases =
          [ ( "",
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
            ( "abc",
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
            ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
            ( "The quick brown fox jumps over the lazy dog",
              "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" ) ]
        in
        List.iter
          (fun (input, expected) ->
            Alcotest.(check string) input expected (Sha256.hex input))
          cases);
    Alcotest.test_case "million a's" `Slow (fun () ->
        let s = String.make 1_000_000 'a' in
        Alcotest.(check string) "1M a"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Sha256.hex s));
    Alcotest.test_case "incremental = one-shot" `Quick (fun () ->
        let parts = [ "hello "; "world"; String.make 200 'x'; "" ; "tail" ] in
        let ctx = Sha256.init () in
        List.iter (Sha256.feed ctx) parts;
        Alcotest.(check string) "incremental"
          (Sha256.hex (String.concat "" parts))
          (Sha256.to_hex (Sha256.finalize ctx)));
    Alcotest.test_case "domain separation" `Quick (fun () ->
        let a = Ro.hash ~domain:"d1" [ "x" ] in
        let b = Ro.hash ~domain:"d2" [ "x" ] in
        Alcotest.(check bool) "different domains differ" false (a = b));
    Alcotest.test_case "encoding unambiguous" `Quick (fun () ->
        (* Concatenation-ambiguous inputs must hash differently. *)
        let a = Ro.hash ~domain:"d" [ "ab"; "c" ] in
        let b = Ro.hash ~domain:"d" [ "a"; "bc" ] in
        let c = Ro.hash ~domain:"d" [ "abc" ] in
        Alcotest.(check bool) "split1" false (a = b);
        Alcotest.(check bool) "split2" false (a = c));
    Alcotest.test_case "hash_expand length" `Quick (fun () ->
        List.iter
          (fun len ->
            Alcotest.(check int) "len" len
              (String.length (Ro.hash_expand ~domain:"d" [ "x" ] ~len)))
          [ 0; 1; 31; 32; 33; 100; 1000 ]);
    Alcotest.test_case "wire reader: exact fields, bounded counts, one form"
      `Quick (fun () ->
        let u64 v = Wire.build (fun buf -> Wire.add_u64 buf v) in
        let rejects name s read =
          Alcotest.(check bool) name true (Wire.parse s read = None)
        in
        (* A field parsed with [sub] must be consumed exactly. *)
        let nested = Ro.encode [ Ro.encode [ "a"; "b" ] ] in
        rejects "sub leaves bytes" nested (fun r -> Wire.sub r Wire.bytes);
        Alcotest.(check (option (list string))) "sub exact" (Some [ "a"; "b" ])
          (Wire.parse nested (fun r ->
               Wire.sub r (fun r -> Wire.until_end r Wire.bytes)));
        (* A count the bytes left cannot hold is rejected before any item
           is read. *)
        let calls = ref 0 in
        rejects "huge count"
          (u64 (1 lsl 61) ^ String.make 16 'x')
          (fun r ->
            Wire.list r ~min:8 (fun r ->
                incr calls;
                Wire.fixed r 8));
        Alcotest.(check int) "no item read" 0 !calls;
        (* u64 fields of 2^62 or more never decode. *)
        rejects "2^62 length" (u64 (1 lsl 62)) Wire.bytes;
        rejects "top bit" ("\x80" ^ String.sub (u64 0) 1 7) Wire.u64;
        (* Decimals and naturals have one form each. *)
        let decimal s = Wire.parse (Ro.encode [ s ]) Wire.decimal in
        List.iter
          (fun s -> Alcotest.(check (option int)) s (int_of_string_opt s) (decimal s))
          [ "0"; "7"; "-3"; "4611686018427387903" ];
        List.iter
          (fun s -> Alcotest.(check (option int)) s None (decimal s))
          [ "+0"; "-0"; "01"; "0x1"; "0b1"; "0o1"; "0u1"; "1_0"; " 1"; "";
            "4611686018427387904" ];
        let nat s = Wire.parse (Ro.encode [ s ]) Wire.nat in
        Alcotest.(check bool) "zero" true (nat "\000" = Some Bignum.zero);
        List.iter
          (fun s -> Alcotest.(check bool) (String.escaped s) true (nat s = None))
          [ ""; "\000\000"; "\000\001" ])
  ]

let prop_tests =
  [ qtest "xor_pad involutive"
      QCheck2.Gen.(pair string string)
      (fun (key, data) ->
        let enc = Ro.xor_pad ~domain:"pad" ~key data in
        Ro.xor_pad ~domain:"pad" ~key enc = data);
    qtest "hash_to_bignum_below in range"
      QCheck2.Gen.(pair string (int_range 1 1000000))
      (fun (s, bound) ->
        let b = Bignum.of_int bound in
        let v = Ro.hash_to_bignum_below ~domain:"d" [ s ] b in
        Bignum.sign v >= 0 && Bignum.lt v b);
    qtest "digest deterministic" QCheck2.Gen.string (fun s ->
        Sha256.digest s = Sha256.digest s);
    qtest "digest_list = digest of concat via feed"
      QCheck2.Gen.(list string)
      (fun parts -> Sha256.digest_list parts = Sha256.digest (String.concat "" parts))
  ]

let suite = ("hash", unit_tests @ prop_tests)
