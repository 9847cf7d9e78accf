(* Observability library: histogram bucket algebra, registry
   snapshot/diff, span tracing against the simulator's virtual clock,
   JSONL round-trips, per-layer protocol attribution and the global
   crypto counters. *)

module AS = Adversary_structure
module H = Obs_histogram
module R = Obs_registry

(* ---------------- json ----------------------------------------------- *)

let json_tests =
  [ Alcotest.test_case "to_string/of_string round-trip" `Quick (fun () ->
        let doc =
          Obs_json.Obj
            [ ("a", Obs_json.Int 42);
              ("b", Obs_json.Float 0.1);
              ("c", Obs_json.Str "x\"y\n\\z");
              ("d", Obs_json.Arr [ Obs_json.Null; Obs_json.Bool true ]);
              ("e", Obs_json.Obj []) ]
        in
        let s = Obs_json.to_string doc in
        (match Obs_json.of_string s with
        | Ok doc' ->
          Alcotest.(check string) "stable" s (Obs_json.to_string doc')
        | Error e -> Alcotest.failf "parse error: %s" e));
    Alcotest.test_case "rejects trailing garbage" `Quick (fun () ->
        Alcotest.(check bool) "garbage" true
          (Result.is_error (Obs_json.of_string "{\"a\":1} extra")));
    Alcotest.test_case "canonical ordering sorts fields recursively" `Quick
      (fun () ->
        let doc =
          Obs_json.Obj
            [ ("b", Obs_json.Int 1);
              ( "a",
                Obs_json.Obj
                  [ ("d", Obs_json.Bool false); ("c", Obs_json.Null) ] );
              ( "arr",
                Obs_json.Arr
                  [ Obs_json.Obj
                      [ ("z", Obs_json.Int 2); ("y", Obs_json.Int 3) ] ] ) ]
        in
        Alcotest.(check string)
          "sorted, array order preserved"
          "{\"a\":{\"c\":null,\"d\":false},\"arr\":[{\"y\":3,\"z\":2}],\"b\":1}"
          (Obs_json.to_canonical_string doc);
        (* already-canonical input is a fixed point *)
        let c = Obs_json.sort_fields doc in
        Alcotest.(check string) "idempotent"
          (Obs_json.to_canonical_string doc)
          (Obs_json.to_canonical_string c));
    Alcotest.test_case "canonical ordering is shuffle-invariant" `Quick
      (fun () ->
        let a =
          Obs_json.Obj
            [ ("x", Obs_json.Int 1); ("y", Obs_json.Str "s");
              ("z", Obs_json.Float 2.5) ]
        and b =
          Obs_json.Obj
            [ ("z", Obs_json.Float 2.5); ("x", Obs_json.Int 1);
              ("y", Obs_json.Str "s") ]
        in
        Alcotest.(check string) "same bytes"
          (Obs_json.to_canonical_string a)
          (Obs_json.to_canonical_string b))
  ]

(* ---------------- histogram ------------------------------------------ *)

let histogram_tests =
  [ Alcotest.test_case "bucket boundaries at powers of two" `Quick (fun () ->
        (* bucket 0 is (-inf, 1); bucket i >= 1 is [2^(i-1), 2^i) *)
        Alcotest.(check int) "0.25" 0 (H.bucket_index 0.25);
        Alcotest.(check int) "0.999" 0 (H.bucket_index 0.999);
        Alcotest.(check int) "1.0" 1 (H.bucket_index 1.0);
        Alcotest.(check int) "1.999" 1 (H.bucket_index 1.999);
        Alcotest.(check int) "2.0" 2 (H.bucket_index 2.0);
        Alcotest.(check int) "1024" 11 (H.bucket_index 1024.0);
        Alcotest.(check int) "huge clamps" (H.n_buckets - 1)
          (H.bucket_index 1e300);
        for i = 1 to H.n_buckets - 2 do
          let lo = H.bucket_lower i in
          Alcotest.(check int) "lower edge inclusive" i (H.bucket_index lo);
          Alcotest.(check int) "upper edge excluded" (i + 1)
            (H.bucket_index (H.bucket_upper i))
        done);
    Alcotest.test_case "observe/count/sum/percentile" `Quick (fun () ->
        let h = H.create () in
        List.iter (H.observe h) [ 1.0; 3.0; 5.0; 200.0 ];
        Alcotest.(check int) "count" 4 (H.count h);
        Alcotest.(check (float 1e-9)) "sum" 209.0 (H.sum h);
        Alcotest.(check (option (float 1e-9))) "min" (Some 1.0) (H.min_value h);
        Alcotest.(check (option (float 1e-9))) "max" (Some 200.0)
          (H.max_value h);
        (* p50 lands in the bucket of 3.0 ([2,4)), reported as its upper
           bound *)
        Alcotest.(check (option (float 1e-9))) "p50" (Some 4.0)
          (H.percentile h 50.0));
    Alcotest.test_case "diff is interval subtraction" `Quick (fun () ->
        let older = H.create () in
        List.iter (H.observe older) [ 1.0; 8.0 ];
        let newer = H.copy older in
        List.iter (H.observe newer) [ 8.5; 100.0 ];
        let d = H.diff newer older in
        Alcotest.(check int) "count" 2 (H.count d);
        Alcotest.(check (float 1e-9)) "sum" 108.5 (H.sum d);
        Alcotest.(check int) "bucket of 8.5" 1 (H.bucket d (H.bucket_index 8.5)));
    Alcotest.test_case "merge adds" `Quick (fun () ->
        let a = H.create () and b = H.create () in
        H.observe a 2.0;
        H.observe b 4.0;
        let m = H.merge a b in
        Alcotest.(check int) "count" 2 (H.count m);
        Alcotest.(check (float 1e-9)) "sum" 6.0 (H.sum m));
    Alcotest.test_case "percentile of empty histogram is None" `Quick
      (fun () ->
        let h = H.create () in
        Alcotest.(check (option (float 1e-9))) "p50" None (H.percentile h 50.0);
        Alcotest.(check (option (float 1e-9))) "p100" None
          (H.percentile h 100.0));
    Alcotest.test_case "percentile of a single observation is exact" `Quick
      (fun () ->
        let h = H.create () in
        H.observe h 7.0;
        (* 7.0 lands in [4, 8); the bucket upper bound clamps to vmax *)
        List.iter
          (fun p ->
            Alcotest.(check (option (float 1e-9)))
              (Printf.sprintf "p%.0f" p)
              (Some 7.0) (H.percentile h p))
          [ 1.0; 50.0; 95.0; 100.0 ]);
    Alcotest.test_case "percentile of all-equal observations is exact" `Quick
      (fun () ->
        let h = H.create () in
        for _ = 1 to 5 do H.observe h 42.0 done;
        List.iter
          (fun p ->
            Alcotest.(check (option (float 1e-9)))
              (Printf.sprintf "p%.0f" p)
              (Some 42.0) (H.percentile h p))
          [ 1.0; 50.0; 99.0; 100.0 ]);
    Alcotest.test_case "percentile clamps below-1.0 bucket to vmax" `Quick
      (fun () ->
        (* bucket 0 collects everything below 1.0 (including negatives);
           its nominal upper bound 1.0 must clamp to the observed max *)
        let h = H.create () in
        List.iter (H.observe h) [ -3.0; -1.0; 0.25 ];
        Alcotest.(check (option (float 1e-9))) "p50" (Some 0.25)
          (H.percentile h 50.0);
        Alcotest.(check (option (float 1e-9))) "p100" (Some 0.25)
          (H.percentile h 100.0));
    Alcotest.test_case "percentile hits the unbounded top bucket" `Quick
      (fun () ->
        let h = H.create () in
        H.observe h 1.0;
        H.observe h 1e300;  (* clamps into the last bucket *)
        Alcotest.(check (option (float 1e-9))) "p100 = vmax" (Some 1e300)
          (H.percentile h 100.0))
  ]

(* ---------------- registry ------------------------------------------- *)

let registry_tests =
  [ Alcotest.test_case "labels are canonicalized" `Quick (fun () ->
        let r = R.create () in
        let c1 = R.counter r ~labels:[ ("a", "1"); ("b", "2") ] "m" in
        let c2 = R.counter r ~labels:[ ("b", "2"); ("a", "1") ] "m" in
        R.incr c1;
        Alcotest.(check int) "same handle" 1 (R.value c2));
    Alcotest.test_case "kind mismatch rejected" `Quick (fun () ->
        let r = R.create () in
        ignore (R.counter r "x");
        Alcotest.check_raises "gauge over counter"
          (Invalid_argument "Obs_registry: x already registered as a counter")
          (fun () -> ignore (R.gauge r "x")));
    Alcotest.test_case "snapshot/diff algebra" `Quick (fun () ->
        let r = R.create () in
        let c = R.counter r ~labels:[ ("layer", "rbc") ] "messages" in
        let g = R.gauge r "level" in
        R.incr ~by:5 c;
        R.set g 1.0;
        R.observe r "lat" 10.0;
        let s0 = R.snapshot r in
        R.incr ~by:3 c;
        R.set g 7.5;
        R.observe r "lat" 20.0;
        let s1 = R.snapshot r in
        let d = R.diff s1 s0 in
        Alcotest.(check (option int)) "counter interval" (Some 3)
          (R.counter_value d ~labels:[ ("layer", "rbc") ] "messages");
        (match R.find d "level" with
        | Some (R.Vgauge v) -> Alcotest.(check (float 1e-9)) "gauge newer" 7.5 v
        | _ -> Alcotest.fail "gauge missing from diff");
        (match R.find d "lat" with
        | Some (R.Vhistogram h) ->
          Alcotest.(check int) "histogram interval count" 1 (H.count h);
          Alcotest.(check (float 1e-9)) "histogram interval sum" 20.0 (H.sum h)
        | _ -> Alcotest.fail "histogram missing from diff");
        (* an idle interval drops its zero counters *)
        let d0 = R.diff s1 s1 in
        Alcotest.(check (option int)) "zero counters dropped" None
          (R.counter_value d0 ~labels:[ ("layer", "rbc") ] "messages"));
    Alcotest.test_case "snapshot isolates histograms" `Quick (fun () ->
        let r = R.create () in
        R.observe r "h" 1.0;
        let s = R.snapshot r in
        R.observe r "h" 2.0;
        match R.find s "h" with
        | Some (R.Vhistogram h) -> Alcotest.(check int) "copied" 1 (H.count h)
        | _ -> Alcotest.fail "histogram missing")
  ]

(* ---------------- tracer --------------------------------------------- *)

let trace_tests =
  [ Alcotest.test_case "jsonl golden round-trip" `Quick (fun () ->
        let clock = ref 0.0 in
        let tr = Obs_trace.create ~now:(fun () -> !clock) () in
        let s1 = Obs_trace.span_begin tr ~party:0 ~tag:"t" ~layer:"rbc" "echo" in
        clock := 1.5;
        let s2 = Obs_trace.span_begin tr ~party:0 ~layer:"rbc" "ready" in
        clock := 2.0;
        Obs_trace.point tr ~party:1 ~src:0 ~layer:"rbc" "deliver";
        Obs_trace.span_end tr ~detail:"done" s2;
        clock := 4.25;
        Obs_trace.span_end tr s1;
        let jsonl = Obs_trace.to_jsonl tr in
        (match Obs_trace.of_jsonl jsonl with
        | Error e -> Alcotest.failf "of_jsonl: %s" e
        | Ok records ->
          Alcotest.(check int) "record count" 3 (List.length records);
          let reserialized =
            String.concat ""
              (List.map
                 (fun r ->
                   Obs_json.to_string (Obs_trace.record_to_json r) ^ "\n")
                 records)
          in
          Alcotest.(check string) "byte-stable" jsonl reserialized);
        let st = Obs_trace.stats tr in
        Alcotest.(check int) "started" 2 st.Obs_trace.spans_started;
        Alcotest.(check int) "ended" 2 st.Obs_trace.spans_ended;
        Alcotest.(check int) "points" 1 st.Obs_trace.points_recorded);
    Alcotest.test_case "ring drops oldest and counts" `Quick (fun () ->
        let clock = ref 0.0 in
        let tr = Obs_trace.create ~capacity:4 ~now:(fun () -> !clock) () in
        for i = 1 to 10 do
          clock := float_of_int i;
          Obs_trace.point tr ~layer:"x" (Printf.sprintf "p%d" i)
        done;
        let records = Obs_trace.records tr in
        Alcotest.(check int) "capacity" 4 (List.length records);
        Alcotest.(check int) "dropped" 6
          (Obs_trace.stats tr).Obs_trace.records_dropped;
        match records with
        | r :: _ -> Alcotest.(check string) "oldest kept" "p7" r.Obs_trace.name
        | [] -> Alcotest.fail "empty ring");
    Alcotest.test_case "span id 0 is inert" `Quick (fun () ->
        let o = Obs.noop in
        Alcotest.(check int) "noop span" 0
          (Obs.span_begin o ~layer:"rbc" "echo");
        Obs.span_end o 0 (* must not raise *));
    Alcotest.test_case "rbc spans balance under Sim.run" `Quick (fun () ->
        let structure = AS.threshold ~n:4 ~t:1 in
        let kr = Keyring.deal ~rsa_bits:192 ~seed:21 structure in
        let obs = Obs.create () in
        let sim =
          Sim.create ~size:(Link.frame_size Rbc.msg_size) ~obs ~n:4 ~seed:5 ()
        in
        let tr = Obs_trace.create ~now:(fun () -> Sim.clock sim) () in
        Obs.set_tracer obs tr;
        let delivered = ref 0 in
        let nodes =
          Stack.deploy_rbc ~sim ~keyring:kr ~sender:0
            ~deliver:(fun _ _ -> incr delivered) ()
        in
        Rbc.broadcast nodes.(0) "hello";
        Sim.run sim;
        Alcotest.(check int) "all deliver" 4 !delivered;
        let st = Obs_trace.stats tr in
        Alcotest.(check bool) "spans opened" true (st.Obs_trace.spans_started > 0);
        Alcotest.(check int) "every span closed" st.Obs_trace.spans_started
          st.Obs_trace.spans_ended;
        Alcotest.(check int) "none left open" 0 (Obs_trace.open_count tr))
  ]

(* ---------------- protocol attribution ------------------------------- *)

let layer_counter snap layer name =
  Option.value ~default:0
    (R.counter_value snap ~labels:[ ("layer", layer) ] name)

let attribution_tests =
  [ Alcotest.test_case "per-layer counters partition abc traffic" `Quick
      (fun () ->
        let structure = AS.threshold ~n:4 ~t:1 in
        let kr = Keyring.deal ~rsa_bits:192 ~seed:23 structure in
        let obs = Obs.create () in
        let sim =
          Sim.create
            ~size:(Link.frame_size (Abc.msg_size kr))
            ~obs ~n:4 ~seed:7 ()
        in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"obs-test"
            ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
        in
        Abc.broadcast nodes.(0) "payload";
        Sim.run sim ~until:(fun () -> Array.for_all (fun l -> l <> []) logs);
        let snap = Obs.snapshot obs in
        let m = Sim.metrics sim in
        List.iter
          (fun layer ->
            Alcotest.(check bool)
              (layer ^ " layer counted") true
              (layer_counter snap layer "messages" > 0))
          [ "abc"; "vba"; "cbc"; "abba" ];
        (* every wire message is attributed to exactly one layer *)
        let layered name =
          List.fold_left
            (fun acc layer -> acc + layer_counter snap layer name)
            0
            [ "abc"; "vba"; "cbc"; "abba" ]
        in
        Alcotest.(check int) "messages partition" m.Metrics.messages_sent
          (layered "messages");
        (* layer bytes are the layer's own payload estimate; the wire
           adds wrapping overhead on top, so the sum is a lower bound *)
        Alcotest.(check bool) "bytes bounded by wire" true
          (layered "bytes" > 0 && layered "bytes" <= m.Metrics.bytes_sent);
        (* the Metrics mirror in the registry agrees with the record *)
        Alcotest.(check (option int)) "sim mirror"
          (Some m.Metrics.messages_sent)
          (R.counter_value snap ~labels:[ ("layer", "sim") ] "messages_sent"));
    Alcotest.test_case "noop obs leaves run unobserved" `Quick (fun () ->
        let sim = Sim.create ~n:3 ~seed:3 () in
        Sim.set_handler sim 1 (fun ~src:_ (_ : int) -> ());
        Sim.send sim ~src:0 ~dst:1 9;
        Sim.run sim;
        Alcotest.(check int) "record still counts" 1
          (Sim.metrics sim).Metrics.messages_sent;
        Alcotest.(check bool) "noop inactive" false (Obs.active (Sim.obs sim)))
  ]

(* ---------------- crypto counters ------------------------------------ *)

let crypto_tests =
  [ Alcotest.test_case "disabled by default, counted when enabled" `Quick
      (fun () ->
        let ps = Schnorr_group.default () in
        let rng = Prng.create ~seed:11 in
        let kp = Schnorr_sig.generate ps rng in
        Obs_crypto.reset ();
        ignore (Schnorr_sig.sign ps kp "off");
        Alcotest.(check int) "off" 0 (Obs_crypto.total ());
        Obs_crypto.enable ();
        Fun.protect ~finally:Obs_crypto.disable (fun () ->
            let sg = Schnorr_sig.sign ps kp "on" in
            Alcotest.(check bool) "verifies" true
              (Schnorr_sig.verify ps ~pk:kp.Schnorr_sig.pk "on" sg);
            Alcotest.(check int) "sign" 1 (Obs_crypto.count Obs_crypto.Sign);
            Alcotest.(check int) "verify" 1
              (Obs_crypto.count Obs_crypto.Verify);
            Alcotest.(check bool) "fixed-base exponentiation underneath" true
              (Obs_crypto.count Obs_crypto.Fixed_base_exp > 0));
        Obs_crypto.reset ();
        Alcotest.(check int) "reset" 0 (Obs_crypto.total ()))
  ]

(* Appended after the older groups so their case numbers stay put. *)
let registry_read_tests =
  [ Alcotest.test_case "find_counter reads without registering" `Quick
      (fun () ->
        let r = R.create () in
        Alcotest.(check (option int)) "absent" None
          (R.find_counter r ~labels:[ ("layer", "link") ] "retx");
        Alcotest.(check int) "nothing registered" 0
          (List.length (R.snapshot r));
        R.incr ~by:4 (R.counter r ~labels:[ ("layer", "link") ] "retx");
        ignore (R.gauge r "level");
        Alcotest.(check (option int)) "current value" (Some 4)
          (R.find_counter r ~labels:[ ("layer", "link") ] "retx");
        Alcotest.(check (option int)) "other labels" None
          (R.find_counter r "retx");
        Alcotest.(check (option int)) "a gauge is not a counter" None
          (R.find_counter r "level"))
  ]

let suite =
  ( "obs",
    json_tests @ histogram_tests @ registry_tests @ trace_tests
    @ attribution_tests @ crypto_tests @ registry_read_tests )
