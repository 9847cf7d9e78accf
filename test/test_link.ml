(* Reliable link layer tests (PR 5): the ARQ machinery in isolation
   over a hand-pumped wire, the strict link-frame codec, the simulator
   timer/crash interaction it depends on, and the end-to-end claims —
   a link-off deployment is bit-identical to the pre-link stack (golden
   digests pinned from the previous revision) and a link-on deployment
   restores liveness under probabilistic message loss. *)

module R = Obs_registry
module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1
let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

(* ---------------- hand-pumped endpoint harness ----------------------- *)

(* Two (or [n]) endpoints joined by an explicit frame queue and a manual
   timer list: tests decide exactly which frames arrive and which timers
   fire, with no simulator in the loop. *)
type 'm harness = {
  eps : 'm Link.t array;
  wire : (int * int * 'm Link.frame) Queue.t;  (* src, dst, frame *)
  timers : (int * float * (unit -> unit)) Queue.t;  (* owner, delay, cb *)
  got : (int * 'm) list array;  (* per party, newest first *)
}

let harness ?obs ?(policy = Link.default_policy) n =
  let wire = Queue.create () in
  let timers = Queue.create () in
  let got = Array.make n [] in
  let eps =
    Array.init n (fun me ->
        Link.create ?obs ~policy ~me ~n
          ~raw_send:(fun dst frame -> Queue.push (me, dst, frame) wire)
          ~timer:(fun ~delay cb -> Queue.push (me, delay, cb) timers)
          ~deliver:(fun ~src m -> got.(me) <- (src, m) :: got.(me))
          ())
  in
  { eps; wire; timers; got }

(* Deliver queued frames (optionally filtered) until the wire is empty. *)
let pump ?(keep = fun ~src:_ ~dst:_ _ -> true) h =
  while not (Queue.is_empty h.wire) do
    let src, dst, frame = Queue.pop h.wire in
    if keep ~src ~dst frame then Link.handle h.eps.(dst) ~src frame
  done

(* Fire every pending timer once (retransmit timers re-arm themselves). *)
let fire_timers h =
  let pending = Queue.length h.timers in
  for _ = 1 to pending do
    let _, _, cb = Queue.pop h.timers in
    cb ()
  done

let drop_all ~src:_ ~dst:_ _ = false

let delivered h me = List.rev h.got.(me)

(* ---------------- unit tests ----------------------------------------- *)

let unit_tests =
  [ Alcotest.test_case "policy validation rejects bad fields" `Quick
      (fun () ->
        let bad p =
          match Link.validate_policy p with
          | () -> Alcotest.fail "invalid policy accepted"
          | exception Invalid_argument _ -> ()
        in
        bad { Link.default_policy with rto = 0.0 };
        bad { Link.default_policy with backoff = 0.5 };
        bad { Link.default_policy with max_rto = 1.0 };
        bad { Link.default_policy with jitter = -0.1 };
        bad { Link.default_policy with window = 0 };
        Link.validate_policy Link.default_policy);
    Alcotest.test_case "lossless wire: exactly-once, window drains" `Quick
      (fun () ->
        let h = harness 2 in
        List.iter
          (fun m -> Link.send h.eps.(0) 1 m)
          [ "a"; "b"; "c"; "d"; "e" ];
        pump h;
        Alcotest.(check (list (pair int string)))
          "all delivered once, in order"
          [ (0, "a"); (0, "b"); (0, "c"); (0, "d"); (0, "e") ]
          (delivered h 1);
        Alcotest.(check int) "window drained" 0 (Link.in_flight h.eps.(0) 1);
        Alcotest.(check int) "no backlog" 0 (Link.backlog h.eps.(0) 1);
        Alcotest.(check int) "no retransmits" 0
          (Link.retransmits h.eps.(0)));
    Alcotest.test_case "duplicate DATA is suppressed and re-acked" `Quick
      (fun () ->
        let h = harness 2 in
        let frame = Link.Data { seq = 1; payload = "x" } in
        Link.handle h.eps.(1) ~src:0 frame;
        let acks_before = Queue.length h.wire in
        Link.handle h.eps.(1) ~src:0 frame;
        Alcotest.(check (list (pair int string)))
          "delivered exactly once" [ (0, "x") ] (delivered h 1);
        Alcotest.(check int) "duplicate counted" 1
          (Link.dup_suppressed h.eps.(1));
        Alcotest.(check bool) "duplicate re-acked immediately" true
          (Queue.length h.wire > acks_before));
    Alcotest.test_case
      "out-of-order arrival delivers immediately, cum catches up" `Quick
      (fun () ->
        let h = harness 2 in
        Link.handle h.eps.(1) ~src:0 (Link.Data { seq = 2; payload = "b" });
        (* the gap ack advertises seq 2 selectively *)
        let _, _, ack1 = Queue.pop h.wire in
        (match ack1 with
        | Link.Ack { cum; sel } ->
          Alcotest.(check int) "cum before gap fill" 0 cum;
          Alcotest.(check (list int)) "sel names the gap" [ 2 ] sel
        | _ -> Alcotest.fail "expected an ACK");
        Link.handle h.eps.(1) ~src:0 (Link.Data { seq = 1; payload = "a" });
        let _, _, ack2 = Queue.pop h.wire in
        (match ack2 with
        | Link.Ack { cum; sel } ->
          Alcotest.(check int) "cum after gap fill" 2 cum;
          Alcotest.(check (list int)) "sel empty" [] sel
        | _ -> Alcotest.fail "expected an ACK");
        Alcotest.(check (list (pair int string)))
          "unordered delivery, both exactly once"
          [ (0, "b"); (0, "a") ]
          (delivered h 1));
    Alcotest.test_case "selective ack clears holes in the window" `Quick
      (fun () ->
        let h = harness 2 in
        List.iter (fun m -> Link.send h.eps.(0) 1 m) [ "a"; "b"; "c" ];
        Alcotest.(check int) "three in flight" 3 (Link.in_flight h.eps.(0) 1);
        Link.handle h.eps.(0) ~src:1 (Link.Ack { cum = 0; sel = [ 2 ] });
        Alcotest.(check int) "hole cleared" 2 (Link.in_flight h.eps.(0) 1);
        Link.handle h.eps.(0) ~src:1 (Link.Ack { cum = 3; sel = [] });
        Alcotest.(check int) "cumulative clears the rest" 0
          (Link.in_flight h.eps.(0) 1));
    Alcotest.test_case "retransmission backs off exponentially to the cap"
      `Quick (fun () ->
        let policy =
          { Link.default_policy with
            rto = 100.0;
            backoff = 2.0;
            max_rto = 350.0;
            jitter = 0.0 }
        in
        let h = harness ~policy 2 in
        Link.send h.eps.(0) 1 "m";
        pump ~keep:drop_all h;  (* the wire eats everything *)
        Alcotest.(check (float 1e-9)) "initial rto" 100.0
          (Link.rto_current h.eps.(0) 1);
        fire_timers h;
        pump ~keep:drop_all h;
        Alcotest.(check int) "one retransmit" 1 (Link.retransmits h.eps.(0));
        Alcotest.(check (float 1e-9)) "doubled" 200.0
          (Link.rto_current h.eps.(0) 1);
        fire_timers h;
        pump ~keep:drop_all h;
        Alcotest.(check (float 1e-9)) "capped" 350.0
          (Link.rto_current h.eps.(0) 1);
        fire_timers h;
        pump ~keep:drop_all h;
        Alcotest.(check (float 1e-9)) "stays capped" 350.0
          (Link.rto_current h.eps.(0) 1);
        Alcotest.(check int) "three retransmits" 3
          (Link.retransmits h.eps.(0));
        (* progress resets the backoff *)
        Link.handle h.eps.(0) ~src:1 (Link.Ack { cum = 1; sel = [] });
        Alcotest.(check (float 1e-9)) "ack resets rto" 100.0
          (Link.rto_current h.eps.(0) 1));
    Alcotest.test_case "full window back-pressures into a FIFO backlog"
      `Quick (fun () ->
        let policy = { Link.default_policy with window = 2 } in
        let h = harness ~policy 2 in
        List.iter
          (fun m -> Link.send h.eps.(0) 1 m)
          [ "a"; "b"; "c"; "d"; "e" ];
        Alcotest.(check int) "window full" 2 (Link.in_flight h.eps.(0) 1);
        Alcotest.(check int) "rest parked" 3 (Link.backlog h.eps.(0) 1);
        Alcotest.(check int) "peak is total depth" 5
          (Link.buffer_peak h.eps.(0));
        (* acking the window head admits backlog entries in order *)
        Link.handle h.eps.(0) ~src:1 (Link.Ack { cum = 2; sel = [] });
        Alcotest.(check int) "window refilled" 2 (Link.in_flight h.eps.(0) 1);
        Alcotest.(check int) "backlog drained by two" 1
          (Link.backlog h.eps.(0) 1);
        pump h;
        Link.handle h.eps.(0) ~src:1 (Link.Ack { cum = 5; sel = [] });
        pump h;
        Alcotest.(check (list (pair int string)))
          "delivery preserves submission order"
          [ (0, "a"); (0, "b"); (0, "c"); (0, "d"); (0, "e") ]
          (delivered h 1));
    Alcotest.test_case
      "unreachable peer: in-flight stays bounded, gauge records the peak"
      `Quick (fun () ->
        let obs = Obs.create () in
        let policy = { Link.default_policy with window = 4 } in
        let h = harness ~obs ~policy 2 in
        for i = 1 to 100 do
          Link.send h.eps.(0) 1 (string_of_int i)
        done;
        pump ~keep:drop_all h;
        (* many timer rounds: the retransmit set must not grow *)
        for _ = 1 to 10 do
          fire_timers h;
          pump ~keep:drop_all h
        done;
        Alcotest.(check int) "retransmit buffer bounded by window" 4
          (Link.in_flight h.eps.(0) 1);
        Alcotest.(check int) "backlog holds the rest" 96
          (Link.backlog h.eps.(0) 1);
        Alcotest.(check int) "peak recorded" 100 (Link.buffer_peak h.eps.(0));
        Alcotest.(check bool) "retransmissions kept trying" true
          (Link.retransmits h.eps.(0) >= 40);
        let snap = Obs.snapshot obs in
        (match R.find snap ~labels:[ ("layer", "link") ] "link_buffer_peak" with
        | Some (R.Vgauge g) ->
          Alcotest.(check (float 1e-9)) "link_buffer_peak gauge" 100.0 g
        | _ -> Alcotest.fail "link_buffer_peak gauge missing");
        Alcotest.(check bool) "link_retransmit counter" true
          (Option.value ~default:0
             (R.counter_value snap ~labels:[ ("layer", "link") ]
                "link_retransmit")
          >= 40));
    Alcotest.test_case "peers outside the server set pass through as Raw"
      `Quick (fun () ->
        let h = harness 2 in
        Link.send h.eps.(0) 7 "client-bound";
        let _, dst, frame = Queue.pop h.wire in
        Alcotest.(check int) "destination kept" 7 dst;
        match frame with
        | Link.Raw m -> Alcotest.(check string) "raw passthrough" "client-bound" m
        | _ -> Alcotest.fail "expected Raw")
  ]

(* ---------------- link-frame codec ----------------------------------- *)

let codec_tests =
  [ Alcotest.test_case "link frames round-trip through the codec" `Quick
      (fun () ->
        List.iter
          (fun frame ->
            match Codec.decode_link_frame (Codec.encode_link_frame frame) with
            | Some frame' ->
              Alcotest.(check bool) "round trip" true (frame = frame')
            | None -> Alcotest.fail "decode failed")
          [ Link.Raw "";
            Link.Raw "payload with \000 bytes";
            Link.Data { seq = 1; payload = "hello" };
            Link.Data { seq = 123456789; payload = "" };
            Link.Ack { cum = 0; sel = [] };
            Link.Ack { cum = 7; sel = [ 9; 12; 40 ] } ]);
    Alcotest.test_case "strict decode rejects malformed frames" `Quick
      (fun () ->
        let reject s =
          match Codec.decode_link_frame s with
          | None -> ()
          | Some _ -> Alcotest.failf "accepted malformed frame %S" s
        in
        reject "";
        reject "SLF";
        reject "XLF1\000";
        reject "SLF1";  (* missing kind *)
        reject "SLF1\003";  (* unknown kind *)
        let good =
          Codec.encode_link_frame (Link.Data { seq = 3; payload = "abc" })
        in
        reject (String.sub good 0 (String.length good - 1));  (* truncated *)
        reject (good ^ "x");  (* trailing garbage *)
        (* selective entries must be ascending and above cum *)
        let enc_ack cum sel =
          Codec.encode_link_frame (Link.Ack { cum = cum; sel })
        in
        Alcotest.(check bool) "ascending sel accepted" true
          (Codec.decode_link_frame (enc_ack 2 [ 3; 5 ]) <> None);
        reject (enc_ack 2 [ 5; 3 ]);
        reject (enc_ack 2 [ 3; 3 ]);
        reject (enc_ack 4 [ 3 ]))
  ]

(* ---------------- simulator timer hygiene (crash regression) --------- *)

let timer_tests =
  [ Alcotest.test_case "crashed party's timers are purged and inert" `Quick
      (fun () ->
        let sim : unit Sim.t = Sim.create ~n:2 ~seed:1 () in
        let fired = Array.make 2 0 in
        Sim.set_timer sim 0 ~delay:10.0 (fun () ->
            fired.(0) <- fired.(0) + 1);
        Sim.set_timer sim 1 ~delay:10.0 (fun () ->
            fired.(1) <- fired.(1) + 1);
        Sim.crash sim 0;
        (* timers set after the crash must be inert, not just unfired *)
        Sim.set_timer sim 0 ~delay:5.0 (fun () -> fired.(0) <- fired.(0) + 1);
        Sim.run sim;
        Alcotest.(check int) "crashed party never fires" 0 fired.(0);
        Alcotest.(check int) "live party unaffected" 1 fired.(1))
  ]

(* ---------------- behaviour parity and liveness ----------------------- *)

(* Golden digests of the PR 4 fault campaigns, captured on the revision
   before the link layer landed.  A link-off deployment must reproduce
   the seed behaviour bit for bit: same decisions, same virtual clocks,
   same chaos draws, same corrupted sets. *)
let golden_linkoff_digest =
  "736457053d7a3d1d327b008834113dfc76ed47524f4f3e7a3abf6d6b2d96cc8f"

let digest_campaign cfg =
  let rep = Campaign.run cfg in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : Campaign.run_result) ->
      Buffer.add_string buf
        (Printf.sprintf "%s|%s|%s|%d|%s|%d|%d|%d|%d|%d|%s\n"
           r.Campaign.r_protocol r.Campaign.r_policy r.Campaign.r_mix
           r.Campaign.r_seed
           (match r.Campaign.r_decide_clock with
           | None -> "-"
           | Some c -> Printf.sprintf "%.6f" c)
           (Oracle.count_safety r.Campaign.r_violations)
           (Oracle.count_liveness r.Campaign.r_violations)
           r.Campaign.r_chaos_drops r.Campaign.r_chaos_dups
           r.Campaign.r_chaos_reorders
           (String.concat ","
              (List.map string_of_int (Pset.to_list r.Campaign.r_corrupted)))))
    rep.Campaign.results;
  Sha256.hex (Buffer.contents buf)

let parity_tests =
  [ Alcotest.test_case
      "link off: 50-seed campaign is bit-identical to the pre-link stack"
      `Slow (fun () ->
        let digest =
          digest_campaign
            (Campaign.default_config ~seeds:50
               ~policies:
                 [ Campaign.drop_policy ();
                   Campaign.partition_policy ~n:4 () ]
               ~mixes:
                 [ { Campaign.m_name = "silent"; m_kind = Campaign.Silent };
                   { Campaign.m_name = "byzantine"; m_kind = Campaign.Byz } ]
               ())
        in
        Alcotest.(check string) "golden digest" golden_linkoff_digest digest)
  ]

let lossy_abc ~link ~seed =
  let keyring = Lazy.force kr41 in
  let obs = Obs.create () in
  let sim =
    Sim.create ~obs
      ~size:(Link.frame_size (Abc.msg_size keyring))
      ~n:4 ~seed ()
  in
  Sim.set_chaos sim
    (Some
       { Sim.benign_chaos with
         default_link = { Sim.no_fault with drop = 0.3 } });
  let logs = Array.make 4 [] in
  let nodes =
    Stack.deploy_abc ?link ~sim ~keyring ~tag:"lossy"
      ~deliver:(fun me p -> logs.(me) <- p :: logs.(me))
      ()
  in
  Abc.broadcast nodes.(0) "lossy-1";
  Abc.broadcast nodes.(2) "lossy-2";
  let done_ () = Array.for_all (fun l -> List.length l >= 2) logs in
  let completed =
    match Sim.run sim ~max_steps:300_000 ~until:done_ with
    | () -> done_ ()
    | exception Sim.Out_of_steps _ -> false
  in
  (completed, logs, obs)

let liveness_tests =
  [ Alcotest.test_case "30% loss, link on: abc delivers and retransmits"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let completed, logs, obs =
              lossy_abc ~link:(Some Link.default_policy) ~seed
            in
            Alcotest.(check bool)
              (Printf.sprintf "all parties delivered (seed %d)" seed)
              true completed;
            let l0 = List.rev logs.(0) in
            Array.iteri
              (fun i l ->
                Alcotest.(check (list string))
                  (Printf.sprintf "party %d total order (seed %d)" i seed)
                  l0 (List.rev l))
              logs;
            let snap = Obs.snapshot obs in
            Alcotest.(check bool) "link actually retransmitted" true
              (Option.value ~default:0
                 (R.counter_value snap ~labels:[ ("layer", "link") ]
                    "link_retransmit")
              > 0))
          [ 9001; 9002; 9003 ]);
    Alcotest.test_case "30% loss, link off: the same run stalls" `Quick
      (fun () ->
        (* the gating claim is meaningful only if bare channels really do
           lose liveness at this rate *)
        let stalled =
          List.exists
            (fun seed ->
              let completed, _, _ = lossy_abc ~link:None ~seed in
              not completed)
            [ 9001; 9002; 9003 ]
        in
        Alcotest.(check bool) "at least one bare run stalls" true stalled)
  ]

(* ---------------- gating campaign (acceptance sweep) ------------------ *)

let gating_tests =
  [ Alcotest.test_case
      "50-seed x 2-protocol sweep at 30% drop, link on: liveness gates and holds"
      `Slow (fun () ->
        let cfg =
          Campaign.default_config ~seeds:50
            ~policies:[ Campaign.drop_policy ~rate:0.3 () ]
            ~mixes:[ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
            ~link:Link.default_policy ()
        in
        let rep = Campaign.run cfg in
        Alcotest.(check int) "runs" 100 (List.length rep.Campaign.results);
        Alcotest.(check int) "no safety violations" 0
          (Campaign.safety_count rep);
        Alcotest.(check int) "no gating liveness violations" 0
          (Campaign.gating_liveness_count rep);
        List.iter
          (fun (r : Campaign.run_result) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s seed %d gates" r.Campaign.r_protocol
                 r.Campaign.r_mix r.Campaign.r_seed)
              true r.Campaign.r_reliable;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s seed %d decided" r.Campaign.r_protocol
                 r.Campaign.r_mix r.Campaign.r_seed)
              true r.Campaign.r_decided)
          rep.Campaign.results;
        Alcotest.(check bool) "the link worked for a living" true
          (List.exists
             (fun (r : Campaign.run_result) -> r.Campaign.r_link_retransmits > 0)
             rep.Campaign.results);
        (* the report round-trips through the /2 schema with the link
           section, and the validator accepts it *)
        let json = Campaign.to_json ~id:"gating-test" ~wall:0.0 rep in
        (match Campaign.validate_json json with
        | Ok () -> ()
        | Error e -> Alcotest.failf "report validation failed: %s" e))
  ]

let suite =
  ( "link",
    unit_tests @ codec_tests @ timer_tests @ parity_tests @ liveness_tests
    @ gating_tests )
