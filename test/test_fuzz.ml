(* Protocol fuzzing: a corrupted party injects *randomly generated*
   protocol messages (not just the hand-crafted attacks of
   test_adversarial.ml) while honest parties run normally; the safety
   invariants must hold for every seed.

   This is cheap-and-cheerful model checking: the simulator is
   deterministic given the seed, so any failing seed is immediately
   reproducible. *)

module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1
let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 th41)

let qtest ?(count = 15) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* Byzantine message generators pick from a small alphabet so collisions
   with honest traffic actually happen. *)
let payloads = [| "a"; "b"; "hello world"; "" |]

let fuzz_rbc_msg rng : Rbc.msg =
  let p = payloads.(Prng.int rng (Array.length payloads)) in
  match Prng.int rng 3 with
  | 0 -> Rbc.Send p
  | 1 -> Rbc.Echo p
  | _ -> Rbc.Ready p

let fuzz_tests =
  [ qtest "rbc: consistency under random byzantine injection"
      QCheck2.Gen.int
      (fun seed ->
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed () in
        let outputs = Array.make 4 None in
        let nodes =
          Stack.deploy_rbc ~sim ~keyring:kr ~sender:0 ~deliver:(fun me p ->
              outputs.(me) <- Some p) ()
        in
        (* party 3 is corrupted: on every delivery it injects 1-3 random
           messages to random destinations *)
        let rng = Prng.create ~seed:(seed lxor 0x5A5A) in
        Sim.set_handler sim 3 (fun ~src:_ (_ : Rbc.msg Link.frame) ->
            for _ = 0 to Prng.int rng 3 do
              Sim.send sim ~src:3 ~dst:(Prng.int rng 4)
                (Link.Raw (fuzz_rbc_msg rng))
            done);
        Rbc.broadcast nodes.(0) "hello world";
        (try Sim.run sim ~max_steps:200_000 with Sim.Out_of_steps _ -> ());
        (* consistency: honest deliveries agree (validity may fail only if
           the fuzzer got lucky against a *corrupted* sender — here the
           sender is honest, so everyone must deliver its payload) *)
        List.for_all
          (fun i -> outputs.(i) = Some "hello world")
          [ 0; 1; 2 ]);
    qtest "cbc: uniqueness under random byzantine injection"
      QCheck2.Gen.int
      (fun seed ->
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed () in
        let outputs = Array.make 4 None in
        let _nodes =
          Stack.deploy_cbc ~sim ~keyring:kr ~tag:"fuzz" ~sender:0
            ~deliver:(fun me p _ -> outputs.(me) <- Some p)
            ()
        in
        (* corrupted SENDER: equivocates and injects junk finals *)
        let rng = Prng.create ~seed:(seed lxor 0xA5A5) in
        Sim.set_handler sim 0 (fun ~src:_ (frame : Cbc.msg Link.frame) ->
            (match Link.payload frame with
            | Some (Cbc.Echo share) ->
              (* try to abuse the echo as a certificate by itself *)
              ignore share;
              Sim.send sim ~src:0 ~dst:(Prng.int rng 4)
                (Link.Raw
                   (Cbc.Final
                      (payloads.(Prng.int rng (Array.length payloads)), [])))
            | Some (Cbc.Send _ | Cbc.Final _) | None -> ());
            ());
        Sim.send sim ~src:0 ~dst:1 (Link.Raw (Cbc.Send "x"));
        Sim.send sim ~src:0 ~dst:2 (Link.Raw (Cbc.Send "x"));
        Sim.send sim ~src:0 ~dst:3 (Link.Raw (Cbc.Send "y"));
        (try Sim.run sim ~max_steps:200_000 with Sim.Out_of_steps _ -> ());
        (* uniqueness: all honest deliveries (if any) agree *)
        let delivered = List.filter_map (fun i -> outputs.(i)) [ 1; 2; 3 ] in
        (match delivered with
        | [] -> true
        | x :: rest -> List.for_all (( = ) x) rest));
    qtest ~count:10 "abba: agreement under random byzantine vote injection"
      QCheck2.Gen.int
      (fun seed ->
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed () in
        let decisions = Array.make 4 None in
        let tag = Printf.sprintf "fuzz-%d" seed in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr ~tag
            ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
        in
        let rng = Prng.create ~seed:(seed lxor 0x3C3C) in
        (* corrupted party 3 plays honest-but-also-noisy: it runs the
           protocol (so quorums exist even when the honest trio is split)
           and additionally injects well-formed-but-unjustified votes *)
        let honest = fun ~src m -> Abba.handle nodes.(3) ~src m in
        Sim.set_handler sim 3 (fun ~src frame ->
            match Link.payload frame with
            | None -> ()
            | Some m ->
              if Prng.int rng 4 = 0 then begin
                let b = Prng.bool rng in
                let r = 1 + Prng.int rng 2 in
                let share =
                  Keyring.cert_share kr ~party:3
                    (Ro.encode
                       [ "abba-pre"; tag; string_of_int r; string_of_bool b ])
                in
                Sim.send sim ~src:3 ~dst:(Prng.int rng 4)
                  (Link.Raw
                     (Abba.Prevote
                        { Abba.pv_round = r;
                          pv_vote = b;
                          pv_just = Abba.J_support [];
                          pv_share = share }))
              end;
              honest ~src m);
        Array.iteri (fun i node -> Abba.propose node (i mod 2 = 0)) nodes;
        (try Sim.run sim ~max_steps:400_000 with Sim.Out_of_steps _ -> ());
        (* agreement among honest deciders; and all honest decide *)
        let ds = List.filter_map (fun i -> decisions.(i)) [ 0; 1; 2 ] in
        List.length ds = 3
        && match ds with d :: rest -> List.for_all (( = ) d) rest | [] -> false)
  ]

(* ---- batch-frame codec (Codec.encode_batch / decode_batch) ----------
   The batching layer's safety rests on the codec never mis-splitting a
   frame: a decoded frame is exactly the encoded payload list, and every
   malformed byte string (truncation, garbage, trailing bytes) is
   rejected outright rather than decoded to a partial or shifted list. *)

let gen_payload =
  (* arbitrary bytes, including NULs, the frame magic, and length-prefix
     look-alikes *)
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:(char_range '\000' '\255') (0 -- 64);
        map (fun s -> "SBF1" ^ s) (string_size (0 -- 8));
        return "" ])

let gen_payloads = QCheck2.Gen.(list_size (0 -- 12) gen_payload)

let codec_tests =
  [ qtest ~count:200 "batch codec: decode o encode = identity" gen_payloads
      (fun ps -> Codec.decode_batch (Codec.encode_batch ps) = Some ps);
    qtest ~count:200 "batch codec: every proper prefix is rejected"
      gen_payloads
      (fun ps ->
        let frame = Codec.encode_batch ps in
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          match Codec.decode_batch (String.sub frame 0 len) with
          | None -> ()
          | Some _ -> ok := false
        done;
        !ok);
    qtest ~count:200 "batch codec: trailing garbage is rejected"
      QCheck2.Gen.(pair gen_payloads (string_size (1 -- 16)))
      (fun (ps, junk) ->
        Codec.decode_batch (Codec.encode_batch ps ^ junk) = None);
    qtest ~count:200 "batch codec: random byte strings never mis-split"
      QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 96))
      (fun s ->
        (* decoding arbitrary bytes either fails or round-trips to the
           very same bytes — no third outcome where payloads appear out
           of thin air *)
        match Codec.decode_batch s with
        | None -> true
        | Some ps -> Codec.encode_batch ps = s);
    qtest ~count:200 "batch codec: corrupting one byte never mis-splits"
      QCheck2.Gen.(triple gen_payloads small_nat (char_range '\000' '\255'))
      (fun (ps, pos, c) ->
        let frame = Bytes.of_string (Codec.encode_batch ps) in
        let pos = pos mod Bytes.length frame in
        Bytes.set frame pos c;
        let frame = Bytes.to_string frame in
        match Codec.decode_batch frame with
        | None -> true
        | Some ps' -> Codec.encode_batch ps' = frame)
  ]

(* ---- checkpoint codecs (Codec.encode_snapshot / encode_ckpt) --------
   Catch-up installs remote state, so these frames cross a trust
   boundary: the snapshot's bytes are the hashed statement a certificate
   signs, and the certified frame pairs that snapshot with the
   certificate.  Canonicity (decode o encode = identity, decode never
   accepts bytes that re-encode differently) is what makes the hash
   binding sound; strictness (truncation / bit flips / trailing bytes
   rejected whole) keeps a Byzantine server from smuggling a frame that
   parses two ways. *)

let gen_snapshot =
  QCheck2.Gen.(
    map3
      (fun round app digests -> Codec.encode_snapshot ~round ~app ~digests)
      (0 -- 1_000_000)
      (string_size ~gen:(char_range '\000' '\255') (0 -- 48))
      (list_size (0 -- 10)
         (string_size ~gen:(char_range '\000' '\255') (0 -- 40))))

let gen_ckpt =
  QCheck2.Gen.(
    map2
      (fun snapshot cert -> Codec.encode_ckpt ~snapshot ~cert)
      gen_snapshot
      (string_size ~gen:(char_range '\000' '\255') (0 -- 64)))

let ckpt_codec_tests =
  [ qtest ~count:200 "snapshot codec: decode o encode = identity"
      QCheck2.Gen.(
        triple (0 -- 1_000_000)
          (string_size ~gen:(char_range '\000' '\255') (0 -- 48))
          (list_size (0 -- 10)
             (string_size ~gen:(char_range '\000' '\255') (0 -- 40))))
      (fun (round, app, digests) ->
        Codec.decode_snapshot (Codec.encode_snapshot ~round ~app ~digests)
        = Some (round, app, digests));
    qtest ~count:200 "snapshot codec: every proper prefix is rejected"
      gen_snapshot
      (fun frame ->
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_snapshot (String.sub frame 0 len) <> None then
            ok := false
        done;
        !ok);
    qtest ~count:200 "snapshot codec: single bit flip never decodes canonically"
      QCheck2.Gen.(triple gen_snapshot small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let b = Bytes.of_string frame in
        let pos = pos mod Bytes.length b in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
        let flipped = Bytes.to_string b in
        (* the flipped frame either fails outright or re-encodes to the
           same flipped bytes — it can never alias the original's hash *)
        match Codec.decode_snapshot flipped with
        | None -> true
        | Some (round, app, digests) ->
          Codec.encode_snapshot ~round ~app ~digests = flipped);
    qtest ~count:200 "ckpt codec: decode o encode = identity"
      QCheck2.Gen.(
        pair gen_snapshot
          (string_size ~gen:(char_range '\000' '\255') (0 -- 64)))
      (fun (snapshot, cert) ->
        Codec.decode_ckpt (Codec.encode_ckpt ~snapshot ~cert)
        = Some (snapshot, cert));
    qtest ~count:200 "ckpt codec: truncation and trailing bytes rejected"
      QCheck2.Gen.(pair gen_ckpt (string_size (1 -- 16)))
      (fun (frame, junk) ->
        let prefixes_fail = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_ckpt (String.sub frame 0 len) <> None then
            prefixes_fail := false
        done;
        !prefixes_fail && Codec.decode_ckpt (frame ^ junk) = None);
    qtest ~count:200 "ckpt codec: random bytes never mis-split"
      QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 120))
      (fun s ->
        match Codec.decode_ckpt s with
        | None -> true
        | Some (snapshot, cert) -> Codec.encode_ckpt ~snapshot ~cert = s)
  ]

(* ---- reliable link layer (PR 5) -------------------------------------
   Two properties the liveness claim rests on: the retransmit schedule
   is a pure function of the policy seed (so lossy sweeps are exactly
   replayable), and delivery is exactly-once no matter how the chaos
   layer duplicates, reorders or drops DATA frames.  Plus strict-codec
   fuzz for the link-frame wire format. *)

(* Record the retransmit delays of an endpoint whose peer never acks:
   send one payload, fire the timer [rounds] times, collect each armed
   delay. *)
let backoff_schedule ~seed ~rounds =
  let policy =
    { Link.default_policy with jitter = 0.5; rto = 100.0; seed }
  in
  let timers = Queue.create () in
  let delays = ref [] in
  let ep =
    Link.create ~policy ~me:0 ~n:2
      ~raw_send:(fun _ _ -> ())
      ~timer:(fun ~delay cb ->
        delays := delay :: !delays;
        Queue.push cb timers)
      ~deliver:(fun ~src:_ _ -> ())
      ()
  in
  Link.send ep 1 "probe";
  for _ = 1 to rounds do
    let pending = Queue.length timers in
    for _ = 1 to pending do
      (Queue.pop timers) ()
    done
  done;
  List.rev !delays

let link_fuzz_tests =
  [ qtest ~count:100 "link: retransmit schedule is a function of the seed"
      QCheck2.Gen.int
      (fun seed ->
        let a = backoff_schedule ~seed ~rounds:6 in
        let b = backoff_schedule ~seed ~rounds:6 in
        List.length a = 7 && a = b);
    qtest ~count:100
      "link: exactly-once delivery under duplicate/reorder/drop chaos"
      QCheck2.Gen.int
      (fun seed ->
        let n = 4 in
        let payloads = List.init 5 (fun i -> Printf.sprintf "m-%d" i) in
        let sim = Sim.create ~n ~seed () in
        Sim.set_chaos sim
          (Some
             { Sim.benign_chaos with
               default_link =
                 { Sim.drop = 0.25; duplicate = 0.25; reorder = 0.25; delay = 0.0 } });
        let got = Array.make n [] in
        let eps =
          Array.init n (fun me ->
              Link.create
                ~policy:{ Link.default_policy with seed = seed land 0xffff }
                ~me ~n
                ~raw_send:(fun dst f -> Sim.send sim ~src:me ~dst f)
                ~timer:(fun ~delay cb -> Sim.set_timer sim me ~delay cb)
                ~deliver:(fun ~src m -> got.(me) <- (src, m) :: got.(me))
                ())
        in
        Array.iteri (fun me ep -> Sim.set_handler sim me (Link.handle ep)) eps;
        List.iter (fun p -> Link.broadcast eps.(0) p) payloads;
        (try Sim.run sim ~max_steps:400_000 with Sim.Out_of_steps _ -> ());
        (* every party got every payload exactly once, from party 0 *)
        Array.for_all
          (fun l ->
            List.sort compare l
            = List.sort compare (List.map (fun p -> (0, p)) payloads))
          got);
    qtest ~count:200 "link codec: decode o encode = identity"
      QCheck2.Gen.(
        oneof
          [ map (fun p -> Link.Raw p) gen_payload;
            map2
              (fun s p -> Link.Data { seq = 1 + abs s; payload = p })
              small_int gen_payload;
            map2
              (fun c sel ->
                let c = abs c in
                let sel =
                  List.sort_uniq compare (List.map (fun s -> c + 1 + abs s) sel)
                in
                Link.Ack { cum = c; sel })
              small_int
              (list_size (0 -- 6) small_int) ])
      (fun frame ->
        Codec.decode_link_frame (Codec.encode_link_frame frame) = Some frame);
    qtest ~count:200 "link codec: random bytes never mis-decode"
      QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 96))
      (fun s ->
        match Codec.decode_link_frame s with
        | None -> true
        | Some frame -> Codec.encode_link_frame frame = s);
    qtest ~count:200 "link codec: every proper prefix is rejected"
      QCheck2.Gen.(pair gen_payload small_nat)
      (fun (p, seq) ->
        let frame =
          Codec.encode_link_frame (Link.Data { seq = seq + 1; payload = p })
        in
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_link_frame (String.sub frame 0 len) <> None then
            ok := false
        done;
        !ok)
  ]

(* ---- batched and lazy crypto verification (PR 7) --------------------
   Two properties the batched hot path rests on: a corrupted proof in a
   k-batch is always detected and attributed by bisection (no matter
   which component was corrupted), and the lazy combine path never
   accepts a bad combined output — it either prunes down to the honest
   value or refuses.  Corruptions are random field/group elements, not
   hand-picked special cases. *)

module B = Bignum
module G = Schnorr_group

let fps = G.default ~bits:96 ()
let fsharing = lazy (Dl_sharing.deal fps th41 (Prng.create ~seed:2000))
let frsa = lazy (Rsa_threshold.deal ~bits:192 ~n:4 ~k:2 (Prng.create ~seed:2001))

let nonzero_exp rng =
  let rec go () =
    let r = G.random_exponent fps rng in
    if B.sign r = 0 then go () else r
  in
  go ()

(* k distinct parties out of [0, n). *)
let pick_distinct rng ~n ~k =
  let rec go acc =
    if List.length acc = k then acc
    else
      let p = Prng.int rng n in
      if List.mem p acc then go acc else go (p :: acc)
  in
  go []

let crypto_fuzz_tests =
  [ qtest ~count:200 "batch: one corrupted proof always attributed"
      QCheck2.Gen.(pair int (int_range 2 9))
      (fun (seed, k) ->
        let rng = Prng.create ~seed in
        let domain = "fuzz-batch" in
        let g2 = G.hash_to_elt fps ~domain:"fuzz-base" [ "b" ] in
        let batch =
          List.init k (fun _ ->
              let x = G.random_exponent fps rng in
              let h1 = G.exp_g fps x and h2 = G.exp fps g2 x in
              let p = Dleq.prove fps ~domain ~x ~g1:fps.G.g ~h1 ~g2 ~h2 in
              ({ Dleq.g1 = fps.G.g; h1; g2; h2 }, p))
        in
        let bad = Prng.int rng k in
        let delta = nonzero_exp rng in
        let batch =
          List.mapi
            (fun i ((s : Dleq.statement), (p : Dleq.t)) ->
              if i <> bad then (s, p)
              else
                match Prng.int rng 3 with
                | 0 ->
                  (* corrupted response *)
                  (s, { p with Dleq.z = B.add_mod p.Dleq.z delta fps.G.q })
                | 1 ->
                  (* tampered statement: random subgroup multiplier *)
                  ( { s with
                      Dleq.h2 = G.mul fps s.Dleq.h2 (G.exp fps g2 delta) },
                    p )
                | _ ->
                  (* batch poisoning: bogus commitment under honest (c, z) *)
                  (s, { p with Dleq.a1 = G.exp_g fps delta }))
            batch
        in
        (not (Dleq.batch_verify fps ~domain batch))
        && Dleq.batch_find_bad fps ~domain batch = [ bad ]);
    qtest ~count:70 "lazy coin combine never accepts a corrupted value"
      QCheck2.Gen.(pair int (int_range 1 3))
      (fun (seed, ncorrupt) ->
        let sharing = Lazy.force fsharing in
        let rng = Prng.create ~seed:(seed lxor 0x7777) in
        let name = Printf.sprintf "fz-%d" seed in
        let honest =
          List.init 3 (fun i -> (i, Coin.generate_share sharing ~party:i ~name))
        in
        let corrupted = pick_distinct rng ~n:3 ~k:ncorrupt in
        let shares =
          List.map
            (fun (i, ss) ->
              if List.mem i corrupted then
                ( i,
                  List.map
                    (fun (s : Coin.share) ->
                      { s with
                        Coin.value =
                          G.mul fps s.Coin.value
                            (G.exp_g fps (nonzero_exp rng)) })
                    ss )
              else (i, ss))
            honest
        in
        let got =
          Coin.combine sharing ~name ~avail:(Pset.of_list [ 0; 1; 2 ]) shares ()
        in
        if 3 - ncorrupt >= 2 then
          (* enough honest parties: prunes to exactly the honest coin *)
          got <> None
          && got
             = Coin.combine sharing ~name ~avail:(Pset.of_list [ 0; 1 ])
                 (List.filteri (fun i _ -> i < 2) honest)
                 ()
        else got = None);
    qtest ~count:70 "lazy tdh2 combine never accepts a corrupted plaintext"
      QCheck2.Gen.(pair int (int_range 1 3))
      (fun (seed, ncorrupt) ->
        let sharing = Lazy.force fsharing in
        let rng = Prng.create ~seed:(seed lxor 0x1234) in
        let msg = Printf.sprintf "payload-%d" seed in
        let ct =
          Tdh2.encrypt sharing (Prng.create ~seed:(seed lxor 0x9)) ~label:"fz"
            msg
        in
        let honest =
          List.filter_map
            (fun i ->
              Option.map
                (fun s -> (i, s))
                (Tdh2.decryption_share sharing ~party:i ct))
            [ 0; 1; 2 ]
        in
        let corrupted = pick_distinct rng ~n:3 ~k:ncorrupt in
        let shares =
          List.map
            (fun (i, ss) ->
              if List.mem i corrupted then
                ( i,
                  List.map
                    (fun (s : Tdh2.dec_share) ->
                      { s with
                        Tdh2.value =
                          G.mul fps s.Tdh2.value
                            (G.exp_g fps (nonzero_exp rng)) })
                    ss )
              else (i, ss))
            honest
        in
        let got =
          Tdh2.combine sharing (Option.get (Tdh2.check sharing ct))
            ~avail:(Pset.of_list [ 0; 1; 2 ]) shares
        in
        if 3 - ncorrupt >= 2 then got = Some msg else got = None);
    qtest ~count:70 "lazy rsa combine never emits an invalid signature"
      QCheck2.Gen.(pair int (int_range 1 3))
      (fun (seed, ncorrupt) ->
        let keys = Lazy.force frsa in
        let nn = keys.Rsa_threshold.pk.Rsa_threshold.n_modulus in
        let rng = Prng.create ~seed:(seed lxor 0x4321) in
        let msg = Printf.sprintf "doc-%d" seed in
        let honest =
          List.map (fun i -> Rsa_threshold.sign_share keys ~party:i msg) [ 0; 1; 2 ]
        in
        let corrupted = pick_distinct rng ~n:3 ~k:ncorrupt in
        let shares =
          List.map
            (fun (s : Rsa_threshold.share) ->
              if List.mem s.Rsa_threshold.signer corrupted then
                { s with
                  Rsa_threshold.x =
                    B.add_mod s.Rsa_threshold.x
                      (B.of_int (1 + Prng.int rng 0x3FFFFFFF))
                      nn }
              else s)
            honest
        in
        match Rsa_threshold.combine keys msg shares with
        | Some y ->
          3 - ncorrupt >= 2 && Rsa_threshold.verify keys.Rsa_threshold.pk msg y
        | None -> 3 - ncorrupt < 2)
  ]

(* ---- service frames (PR 9) ------------------------------------------
   The client/server wire format: SVQ1 requests are what gets ordered
   (their digest keys the whole reply protocol), SVR1 replies carry
   signature shares from untrusted servers, and SVC1 certificates are
   handed to third parties.  All three cross trust boundaries, so the
   same canonicity/strictness properties as the checkpoint codecs. *)

let gen_svc_bytes lo hi =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (lo -- hi))

let gen_svc_request =
  QCheck2.Gen.(
    map3
      (fun client nonce body -> Codec.encode_svc_request ~client ~nonce ~body)
      (0 -- 1_000_000)
      (gen_svc_bytes 1 16) (gen_svc_bytes 0 64))

let gen_svc_reply =
  QCheck2.Gen.(
    map2
      (fun (fast, req_digest, server) (response, share) ->
        Codec.encode_svc_reply ~fast ~req_digest ~server ~response ~share)
      (triple bool (gen_svc_bytes 0 40) (0 -- 999))
      (pair (gen_svc_bytes 0 64) (gen_svc_bytes 0 64)))

let gen_reply_cert =
  QCheck2.Gen.(
    map2
      (fun (fast, req_digest) (response, cert) ->
        Codec.encode_reply_cert ~fast ~req_digest ~response ~cert)
      (pair bool (gen_svc_bytes 0 40))
      (pair (gen_svc_bytes 0 64) (gen_svc_bytes 0 80)))

(* Arbitrary bytes, weighted toward frames that start with the right
   magic so the parser's interior checks get exercised too. *)
let gen_svc_garbage magic =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:(char_range '\000' '\255') (0 -- 96);
        map (fun s -> magic ^ s)
          (string_size ~gen:(char_range '\000' '\255') (0 -- 64));
        return "" ])

let svc_codec_tests =
  [ qtest ~count:200 "svc request codec: decode o encode = identity"
      QCheck2.Gen.(
        triple (0 -- 1_000_000) (gen_svc_bytes 1 16) (gen_svc_bytes 0 64))
      (fun (client, nonce, body) ->
        Codec.decode_svc_request
          (Codec.encode_svc_request ~client ~nonce ~body)
        = Some (client, nonce, body));
    qtest ~count:200 "svc request codec: every proper prefix is rejected"
      gen_svc_request
      (fun frame ->
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_svc_request (String.sub frame 0 len) <> None then
            ok := false
        done;
        !ok);
    qtest ~count:200 "svc request codec: trailing garbage is rejected"
      QCheck2.Gen.(pair gen_svc_request (gen_svc_bytes 1 16))
      (fun (frame, junk) -> Codec.decode_svc_request (frame ^ junk) = None);
    qtest ~count:200 "svc request codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_svc_request small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let b = Bytes.of_string frame in
        let pos = pos mod Bytes.length b in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
        let flipped = Bytes.to_string b in
        match Codec.decode_svc_request flipped with
        | None -> true
        | Some (client, nonce, body) ->
          Codec.encode_svc_request ~client ~nonce ~body = flipped);
    qtest ~count:200 "svc request codec: random bytes never mis-split"
      (gen_svc_garbage "SVQ1")
      (fun s ->
        match Codec.decode_svc_request s with
        | None -> true
        | Some (client, nonce, body) ->
          Codec.encode_svc_request ~client ~nonce ~body = s);
    qtest ~count:200 "svc reply codec: decode o encode = identity"
      QCheck2.Gen.(
        pair
          (triple bool (gen_svc_bytes 0 40) (0 -- 999))
          (pair (gen_svc_bytes 0 64) (gen_svc_bytes 0 64)))
      (fun ((fast, req_digest, server), (response, share)) ->
        Codec.decode_svc_reply
          (Codec.encode_svc_reply ~fast ~req_digest ~server ~response ~share)
        = Some (fast, req_digest, server, response, share));
    qtest ~count:200 "svc reply codec: every proper prefix is rejected"
      gen_svc_reply
      (fun frame ->
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_svc_reply (String.sub frame 0 len) <> None then
            ok := false
        done;
        !ok);
    qtest ~count:200 "svc reply codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_svc_reply small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let b = Bytes.of_string frame in
        let pos = pos mod Bytes.length b in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
        let flipped = Bytes.to_string b in
        match Codec.decode_svc_reply flipped with
        | None -> true
        | Some (fast, req_digest, server, response, share) ->
          Codec.encode_svc_reply ~fast ~req_digest ~server ~response ~share
          = flipped);
    qtest ~count:200 "svc reply codec: random bytes never mis-split"
      (gen_svc_garbage "SVR1")
      (fun s ->
        match Codec.decode_svc_reply s with
        | None -> true
        | Some (fast, req_digest, server, response, share) ->
          Codec.encode_svc_reply ~fast ~req_digest ~server ~response ~share
          = s);
    qtest ~count:200 "reply cert codec: decode o encode = identity"
      QCheck2.Gen.(
        pair
          (pair bool (gen_svc_bytes 0 40))
          (pair (gen_svc_bytes 0 64) (gen_svc_bytes 0 80)))
      (fun ((fast, req_digest), (response, cert)) ->
        Codec.decode_reply_cert
          (Codec.encode_reply_cert ~fast ~req_digest ~response ~cert)
        = Some (fast, req_digest, response, cert));
    qtest ~count:200
      "reply cert codec: truncation and trailing bytes rejected"
      QCheck2.Gen.(pair gen_reply_cert (gen_svc_bytes 1 16))
      (fun (frame, junk) ->
        let prefixes_fail = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_reply_cert (String.sub frame 0 len) <> None then
            prefixes_fail := false
        done;
        !prefixes_fail && Codec.decode_reply_cert (frame ^ junk) = None);
    qtest ~count:200 "reply cert codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_reply_cert small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let b = Bytes.of_string frame in
        let pos = pos mod Bytes.length b in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
        let flipped = Bytes.to_string b in
        match Codec.decode_reply_cert flipped with
        | None -> true
        | Some (fast, req_digest, response, cert) ->
          Codec.encode_reply_cert ~fast ~req_digest ~response ~cert = flipped);
    qtest ~count:200 "reply cert codec: random bytes never mis-split"
      (gen_svc_garbage "SVC1")
      (fun s ->
        match Codec.decode_reply_cert s with
        | None -> true
        | Some (fast, req_digest, response, cert) ->
          Codec.encode_reply_cert ~fast ~req_digest ~response ~cert = s)
  ]

(* ---- epoch frames and reshare-package integrity -------------------
   The reconfiguration frames carry field and group elements, so on top
   of the usual codec properties (round trip, prefix rejection,
   canonical bit flips) we check the semantic one the epoch protocol
   rests on: a refresh package corrupted in transit — any single bit of
   its wire frame, or any single field — never passes
   [Proactive.verify_reshare].  A refresh package reshares onto the
   current structure; the membership-change rows reshare onto one
   without party 3.  Both are [SER1] frames. *)

let ftarget = lazy (Proactive.target_of (Lazy.force fsharing) th41)

let fremoved =
  lazy
    (Proactive.target_of (Lazy.force fsharing)
       (AS.of_access_formula ~n:4
          (Monotone_formula.threshold 2
             (List.map Monotone_formula.leaf [ 0; 1; 2 ]))))

let reshare_pkg ?(target = ftarget) ~salt seed =
  let rng = Prng.create ~seed:(seed lxor salt) in
  Proactive.make_reshare (Lazy.force fsharing) (Lazy.force target)
    ~dealer:(Prng.int rng 4) rng

let gen_frame ?target ~salt () =
  QCheck2.Gen.map
    (fun seed -> Codec.encode_reshare_pkg fps (reshare_pkg ?target ~salt seed))
    QCheck2.Gen.int

let gen_refresh_frame = gen_frame ~salt:0x5e9 ()
let gen_reshare_frame = gen_frame ~target:fremoved ~salt:0xa11 ()

let rec gen_formula rng depth =
  if depth = 0 || Prng.int rng 3 = 0 then
    Monotone_formula.Leaf (Prng.int rng 7)
  else begin
    let c = 1 + Prng.int rng 3 in
    let k = 1 + Prng.int rng c in
    Monotone_formula.Threshold
      (k, List.init c (fun _ -> gen_formula rng (depth - 1)))
  end

let gen_adv_frame =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Prng.create ~seed:(seed lxor 0xbeef) in
      let epoch = Prng.int rng 1000 in
      let target =
        if Prng.int rng 2 = 0 then None
        else Some (1 + Prng.int rng 7, gen_formula rng 3)
      in
      let pkgs =
        List.init (Prng.int rng 4) (fun i ->
            String.init (Prng.int rng 40) (fun j ->
                Char.chr ((i * 31 + j + Prng.int rng 256) land 0xff)))
      in
      Codec.encode_epoch_adv ~epoch ~target ~pkgs)
    QCheck2.Gen.int

let reencode_reshare s =
  match Codec.decode_reshare_pkg fps s with
  | None -> None
  | Some p -> Some (Codec.encode_reshare_pkg fps p)

let reencode_adv s =
  match Codec.decode_epoch_adv s with
  | None -> None
  | Some (epoch, target, pkgs) ->
    Some (Codec.encode_epoch_adv ~epoch ~target ~pkgs)

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos
    (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let epoch_codec_tests =
  [ qtest ~count:200 "refresh pkg codec: decode o encode = identity"
      gen_refresh_frame
      (fun frame -> reencode_reshare frame = Some frame);
    qtest ~count:200 "refresh pkg codec: every proper prefix is rejected"
      gen_refresh_frame
      (fun frame ->
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_reshare_pkg fps (String.sub frame 0 len) <> None
          then ok := false
        done;
        !ok && Codec.decode_reshare_pkg fps (frame ^ "x") = None);
    qtest ~count:200 "refresh pkg codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_refresh_frame small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let flipped = flip_bit frame pos bit in
        match reencode_reshare flipped with
        | None -> true
        | Some re -> re = flipped);
    qtest ~count:100 "refresh pkg: a bit flipped in transit never verifies"
      QCheck2.Gen.(triple QCheck2.Gen.int small_nat (0 -- 7))
      (fun (seed, pos, bit) ->
        let pkg = reshare_pkg ~salt:0x5e9 seed in
        let frame = Codec.encode_reshare_pkg fps pkg in
        let flipped = flip_bit frame pos bit in
        (* Acceptance in the epoch protocol is [verify_reshare] plus the
           channel binding dealer = sender; a flip must fail one. *)
        match Codec.decode_reshare_pkg fps flipped with
        | None -> true
        | Some pkg' ->
          Codec.encode_reshare_pkg fps pkg' = frame
          || not
               (Proactive.verify_reshare (Lazy.force fsharing)
                  (Lazy.force ftarget) pkg'
               && pkg'.Proactive.r_dealer = pkg.Proactive.r_dealer));
    qtest ~count:100 "refresh pkg: any single corrupted field never verifies"
      QCheck2.Gen.int
      (fun seed ->
        let sharing = Lazy.force fsharing in
        let target = Lazy.force ftarget in
        let pkg = reshare_pkg ~salt:0x0dd seed in
        let rng = Prng.create ~seed in
        let delta = nonzero_exp rng in
        let nl = Lsss.num_leaves target.Proactive.t_scheme in
        let d = Prng.int rng (List.length pkg.Proactive.r_deals) in
        let k = Prng.int rng nl in
        let on_deal f =
          { pkg with
            Proactive.r_deals =
              List.mapi
                (fun i deal -> if i = d then f deal else deal)
                pkg.Proactive.r_deals }
        in
        let on_subshare f =
          on_deal (fun (l, subs, keys) ->
              (l, List.mapi (fun i ss -> if i = k then f ss else ss) subs, keys))
        in
        let bad =
          match Prng.int rng 6 with
          | 0 ->
            { pkg with
              Proactive.r_dealer = (pkg.Proactive.r_dealer + 1) mod 4 }
          | 1 ->
            on_deal (fun (l, subs, keys) ->
                ((l + 1) mod Array.length sharing.Dl_sharing.leaf_keys, subs, keys))
          | 2 ->
            on_subshare (fun (ss : Lsss.subshare) ->
                { ss with Lsss.value = B.add_mod ss.Lsss.value delta fps.G.q })
          | 3 ->
            on_deal (fun (l, subs, keys) ->
                let keys = Array.copy keys in
                keys.(k) <- G.mul fps keys.(k) (G.exp_g fps delta);
                (l, subs, keys))
          | 4 ->
            on_subshare (fun (ss : Lsss.subshare) ->
                { ss with Lsss.party = (ss.Lsss.party + 1) mod 4 })
          | _ ->
            on_subshare (fun (ss : Lsss.subshare) ->
                { ss with Lsss.leaf = (ss.Lsss.leaf + 1) mod nl })
        in
        not
          (Proactive.verify_reshare sharing target bad
          && bad.Proactive.r_dealer = pkg.Proactive.r_dealer));
    qtest ~count:100 "reshare pkg codec: decode o encode = identity"
      gen_reshare_frame
      (fun frame -> reencode_reshare frame = Some frame);
    qtest ~count:150 "reshare pkg codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_reshare_frame small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let flipped = flip_bit frame pos bit in
        match reencode_reshare flipped with
        | None -> true
        | Some re -> re = flipped);
    qtest ~count:200 "epoch adv codec: decode o encode = identity"
      gen_adv_frame
      (fun frame -> reencode_adv frame = Some frame);
    qtest ~count:200 "epoch adv codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_adv_frame small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let flipped = flip_bit frame pos bit in
        match reencode_adv flipped with
        | None -> true
        | Some re -> re = flipped);
    qtest ~count:200 "epoch cert codec: round trip and strict framing"
      QCheck2.Gen.(pair string string)
      (fun (body, cert) ->
        let frame = Codec.encode_epoch_cert ~body ~cert in
        Codec.decode_epoch_cert frame = Some (body, cert)
        && Codec.decode_epoch_cert (frame ^ "y") = None
        && (String.length frame = 0
           || Codec.decode_epoch_cert
                (String.sub frame 0 (String.length frame - 1))
              = None))
  ]

(* ---- every decoder is total and canonical -------------------------
   A decoder of bytes from another party must return [None] or a value
   on every input and never raise: a Byzantine sender picks the bytes.
   For one valid frame of each kind, every bit of every byte is flipped
   (not a sample), and the flipped frame must either fail to decode or
   re-encode to exactly the flipped bytes, so no two byte strings decode
   alike.  Crafted frames whose counts overflow [count * item size] in
   63-bit arithmetic ride along as further inputs and must be rejected. *)

let all_flips_canonical name frame reencode =
  let check s what =
    match reencode s with
    | exception e ->
      Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string e)
    | None -> ()
    | Some re ->
      if re <> s then Alcotest.failf "%s: %s decodes non-canonically" name what
  in
  if reencode frame <> Some frame then Alcotest.failf "%s: no round trip" name;
  for pos = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      check (flip_bit frame pos bit) (Printf.sprintf "flip %d.%d" pos bit)
    done
  done

let u64s vs = Wire.build (fun buf -> List.iter (Wire.add_u64 buf) vs)

(* A count below 2^62 whose product with [size] wraps to 0 mod 2^63. *)
let wrapping_count size =
  let rec twos k = if (size lsr k) land 1 = 1 then k else twos (k + 1) in
  let k = twos 0 in
  if k < 2 then invalid_arg "wrapping_count";
  1 lsl (63 - k)

let reencode_with decode encode s = Option.map encode (decode s)
let reencode_link = reencode_with Codec.decode_link_frame Codec.encode_link_frame
let reencode_batch = reencode_with Codec.decode_batch Codec.encode_batch

let wire_tests =
  [ Alcotest.test_case "every codec decoder is total under every bit flip"
      `Quick (fun () ->
        let sharing = Lazy.force fsharing in
        let rng = Prng.create ~seed:0x5ea1 in
        let reshare =
          Codec.encode_reshare_pkg fps
            (Proactive.make_reshare sharing
               (Proactive.target_of sharing th41)
               ~dealer:2 rng)
        in
        let formula =
          Monotone_formula.Threshold
            ( 2,
              [ Monotone_formula.Leaf 0;
                Monotone_formula.Threshold
                  (1, [ Monotone_formula.Leaf 1; Monotone_formula.Leaf 2 ]);
                Monotone_formula.Leaf 3 ] )
        in
        let snapshot =
          Codec.encode_snapshot ~round:7 ~app:"state" ~digests:[ "d1"; "d22" ]
        in
        let link f = (Codec.encode_link_frame f, reencode_link) in
        let cases =
          [ ( "Ro.decode",
              (Ro.encode [ "a"; ""; "bc" ],
               reencode_with Ro.decode Ro.encode) );
            ("SBF1", (Codec.encode_batch [ "x"; ""; "payload" ], reencode_batch));
            ( "SCK1",
              (snapshot,
               reencode_with Codec.decode_snapshot (fun (round, app, digests) ->
                   Codec.encode_snapshot ~round ~app ~digests)) );
            ( "SCP1",
              (Codec.encode_ckpt ~snapshot ~cert:"cert",
               reencode_with Codec.decode_ckpt (fun (snapshot, cert) ->
                   Codec.encode_ckpt ~snapshot ~cert)) );
            ( "SVQ1",
              (Codec.encode_svc_request ~client:3 ~nonce:"n1" ~body:"body",
               reencode_with Codec.decode_svc_request (fun (client, nonce, body) ->
                   Codec.encode_svc_request ~client ~nonce ~body)) );
            ( "SVR1",
              (Codec.encode_svc_reply ~fast:true ~req_digest:"dg" ~server:2
                 ~response:"resp" ~share:"share",
               reencode_with Codec.decode_svc_reply
                 (fun (fast, req_digest, server, response, share) ->
                   Codec.encode_svc_reply ~fast ~req_digest ~server ~response
                     ~share)) );
            ( "SVC1",
              (Codec.encode_reply_cert ~fast:false ~req_digest:"dg"
                 ~response:"resp" ~cert:"cert",
               reencode_with Codec.decode_reply_cert
                 (fun (fast, req_digest, response, cert) ->
                   Codec.encode_reply_cert ~fast ~req_digest ~response ~cert)) );
            ("SLF1 RAW", link (Link.Raw "raw"));
            ("SLF1 DATA", link (Link.Data { seq = 4; payload = "p" }));
            ("SLF1 ACK", link (Link.Ack { cum = 3; sel = [ 5; 9 ] }));
            ("SER1", (reshare, reencode_reshare));
            ( "SEA1",
              (Codec.encode_epoch_adv ~epoch:5 ~target:(Some (4, formula))
                 ~pkgs:[ "pkg" ],
               reencode_adv) );
            ( "SEC1",
              (Codec.encode_epoch_cert ~body:"body" ~cert:"cert",
               reencode_with Codec.decode_epoch_cert (fun (body, cert) ->
                   Codec.encode_epoch_cert ~body ~cert)) ) ]
        in
        List.iter
          (fun (name, (frame, reencode)) -> all_flips_canonical name frame reencode)
          cases;
        (* Counts that the bytes left cannot hold, chosen so that
           [count * item size] wraps to a value the old offset checks
           accepted; and ACK selective sets that are not ascending
           above [cum]. *)
        let nk = wrapping_count (G.elt_len fps) in
        let crafted =
          [ ( "SER1 key count",
              "SER1" ^ u64s [ 0; 1; 0; 0; nk ],
              reencode_reshare );
            ( "SLF1 ACK count",
              "SLF1\002" ^ u64s [ 0; wrapping_count 8 ],
              reencode_link );
            ("SBF1 count", "SBF1" ^ u64s [ wrapping_count 8 ], reencode_batch);
            ("SLF1 ACK descending", "SLF1\002" ^ u64s [ 3; 2; 9; 5 ], reencode_link);
            ("SLF1 ACK repeated", "SLF1\002" ^ u64s [ 3; 2; 5; 5 ], reencode_link);
            ("SLF1 ACK below cum", "SLF1\002" ^ u64s [ 3; 2; 3; 5 ], reencode_link) ]
        in
        List.iter
          (fun (name, frame, reencode) ->
            match reencode frame with
            | exception e ->
              Alcotest.failf "%s raised %s" name (Printexc.to_string e)
            | Some _ -> Alcotest.failf "%s decoded" name
            | None -> ())
          crafted);
    Alcotest.test_case "tdh2 ciphertext bytes are canonical under every bit flip"
      `Quick (fun () ->
        let sharing = Lazy.force fsharing in
        let ct =
          Tdh2.encrypt sharing (Prng.create ~seed:0x7d2) ~label:"lbl" "secret"
        in
        all_flips_canonical "tdh2" (Tdh2.ciphertext_to_bytes sharing ct)
          (reencode_with (Tdh2.ciphertext_of_bytes sharing)
             (Tdh2.ciphertext_to_bytes sharing));
        (* A leading zero byte on an element or on e/f is a second
           encoding of the same ciphertext. *)
        let elt = G.elt_to_bytes fps and nat = B.to_bytes_be in
        let fields u e =
          Ro.encode [ ct.Tdh2.c; ct.Tdh2.label; u; elt ct.Tdh2.u'; e; nat ct.Tdh2.f ]
        in
        Alcotest.(check bool) "exact fields decode" true
          (Tdh2.ciphertext_of_bytes sharing (fields (elt ct.Tdh2.u) (nat ct.Tdh2.e))
          <> None);
        Alcotest.(check bool) "padded element" true
          (Tdh2.ciphertext_of_bytes sharing
             (fields ("\000" ^ elt ct.Tdh2.u) (nat ct.Tdh2.e))
          = None);
        Alcotest.(check bool) "padded exponent" true
          (Tdh2.ciphertext_of_bytes sharing
             (fields (elt ct.Tdh2.u) ("\000" ^ nat ct.Tdh2.e))
          = None));
    qtest ~count:300
      "tdh2 checked_of_bytes = decode then is_valid, under every bit flip"
      QCheck2.Gen.(pair (int_range 0 3) (int_range (-1) 100_000))
      (fun (seed, bit) ->
        (* bit = -1 keeps the honest bytes, which both paths accept *)
        let sharing = Lazy.force fsharing in
        let ct =
          Tdh2.encrypt sharing (Prng.create ~seed:(0x7d2 + seed)) ~label:"lbl"
            "secret"
        in
        let raw = Tdh2.ciphertext_to_bytes sharing ct in
        let b = Bytes.of_string raw in
        if bit >= 0 then begin
          let i = bit mod (8 * Bytes.length b) in
          Bytes.set b (i / 8)
            (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))))
        end;
        let flipped = Bytes.to_string b in
        let reference =
          match Tdh2.ciphertext_of_bytes sharing flipped with
          | Some ct -> Tdh2.is_valid sharing ct
          | None -> false
        in
        let checked = Tdh2.checked_of_bytes sharing flipped in
        Option.is_some checked = reference
        && (bit >= 0 || reference)
        && Option.fold ~none:true
             ~some:(fun c ->
               Tdh2.ciphertext_to_bytes sharing (Tdh2.ciphertext c) = flipped)
             checked);
    Alcotest.test_case "keyring share and signature bytes are canonical"
      `Quick (fun () ->
        let check_keyring name kr =
          let msg = "canonical" in
          let shares =
            List.map (fun p -> Keyring.service_sign_share kr ~party:p msg) [ 0; 1; 2 ]
          in
          let share_flips what share =
            all_flips_canonical (name ^ what)
              (Keyring.sig_share_to_bytes kr share)
              (reencode_with (Keyring.sig_share_of_bytes kr)
                 (Keyring.sig_share_to_bytes kr))
          in
          share_flips " share" (List.hd shares);
          share_flips " reply share" (Keyring.service_reply_share kr ~party:1 msg);
          match Keyring.service_combine kr msg shares with
          | None -> Alcotest.failf "%s: combine failed" name
          | Some sg ->
            all_flips_canonical (name ^ " signature")
              (Keyring.service_signature_to_bytes kr sg)
              (reencode_with (Keyring.service_signature_of_bytes kr)
                 (Keyring.service_signature_to_bytes kr))
        in
        let kr = Lazy.force kr41 in
        check_keyring "rsa" kr;
        check_keyring "cert"
          (Keyring.deal ~group_bits:96 ~seed:0xce7
             (AS.of_access_formula ~n:4
                (Monotone_formula.Threshold
                   ( 2,
                     List.init 4 (fun p -> Monotone_formula.Leaf p) ))));
        (* The signer field accepts only [string_of_int] output. *)
        match Keyring.service_sign_share kr ~party:0 "decimal" with
        | Keyring.Cert_share _ -> Alcotest.fail "expected an RSA share"
        | Keyring.Rsa_share { Rsa_threshold.proof = None; _ } ->
          Alcotest.fail "expected a proved share"
        | Keyring.Rsa_share { Rsa_threshold.x; proof = Some { c; z }; _ } ->
          let with_signer signer =
            Keyring.sig_share_of_bytes kr
              (Ro.encode
                 [ "rsa-share";
                   signer;
                   B.to_bytes_be x;
                   B.to_bytes_be c;
                   B.to_bytes_be z ])
          in
          Alcotest.(check bool) "0 decodes" true (with_signer "0" <> None);
          List.iter
            (fun signer ->
              Alcotest.(check bool) signer true (with_signer signer = None))
            [ "+0"; "0x0"; "-0"; "00"; "0b0"; "0u0"; "0_0" ]);
    Alcotest.test_case "SEA1: formula nesting is bounded" `Quick (fun () ->
        (* [depth] unary gates around one leaf, hand-framed: the encoder
           refuses what the decoder refuses. *)
        let frame depth =
          Wire.build (fun buf ->
              Buffer.add_string buf "SEA1";
              Wire.add_u64 buf 1;
              Buffer.add_char buf '\001';
              Wire.add_u64 buf 4;
              for _ = 1 to depth do
                Buffer.add_char buf '\001';
                Wire.add_u64 buf 1;
                Wire.add_u64 buf 1
              done;
              Buffer.add_char buf '\000';
              Wire.add_u64 buf 0;
              Wire.add_u64 buf 0)
        in
        let rec nest d =
          if d = 0 then Monotone_formula.Leaf 0
          else Monotone_formula.Threshold (1, [ nest (d - 1) ])
        in
        let limit = Pset.max_parties in
        Alcotest.(check bool) "at the limit: decodes and re-encodes" true
          (reencode_adv (frame limit) = Some (frame limit));
        Alcotest.(check bool) "one past the limit" true
          (Codec.decode_epoch_adv (frame (limit + 1)) = None);
        Alcotest.(check bool) "deeply nested" true
          (Codec.decode_epoch_adv (frame 100_000) = None);
        Alcotest.(check bool) "encoder refuses past the limit" true
          (try
             ignore
               (Codec.encode_epoch_adv ~epoch:1
                  ~target:(Some (4, nest (limit + 1)))
                  ~pkgs:[]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "SEC1 peek matches the epoch-cert codec" `Quick
      (fun () ->
        let cert = Codec.encode_epoch_cert ~body:"body" ~cert:"cert" in
        Alcotest.(check bool) "certificate" true (Codec.is_epoch_cert cert);
        List.iter
          (fun s -> Alcotest.(check bool) s false (Codec.is_epoch_cert s))
          [ ""; "SEC"; "SEA1"; Codec.encode_epoch_adv ~epoch:1 ~target:None ~pkgs:[] ])
  ]

let suite =
  ( "fuzz",
    fuzz_tests @ codec_tests @ ckpt_codec_tests @ link_fuzz_tests
    @ crypto_fuzz_tests @ svc_codec_tests @ epoch_codec_tests @ wire_tests )
