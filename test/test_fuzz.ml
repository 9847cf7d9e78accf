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
                      ( payloads.(Prng.int rng (Array.length payloads)),
                        Keyring.Vector_cert [] )))
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
          Tdh2.combine sharing ct ~avail:(Pset.of_list [ 0; 1; 2 ]) shares
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

(* ---- epoch frames and refresh-package integrity (PR 10) -------------
   The reconfiguration frames carry field and group elements, so on top
   of the usual codec properties (round trip, prefix rejection,
   canonical bit flips) we check the semantic one the epoch protocol
   rests on: a refresh package corrupted in transit — any single bit of
   its wire frame, or any single field — never passes
   [Proactive.verify_refresh]. *)

let gen_refresh_pkg =
  QCheck2.Gen.map
    (fun seed ->
      let sharing = Lazy.force fsharing in
      let rng = Prng.create ~seed:(seed lxor 0x5e9) in
      Proactive.make_refresh sharing ~dealer:(Prng.int rng 4) rng)
    QCheck2.Gen.int

let gen_refresh_frame =
  QCheck2.Gen.map (Codec.encode_refresh_pkg fps) gen_refresh_pkg

let gen_reshare_frame =
  QCheck2.Gen.map
    (fun seed ->
      let sharing = Lazy.force fsharing in
      let rng = Prng.create ~seed:(seed lxor 0xa11) in
      let target = Proactive.target_of sharing th41 in
      let pkg =
        Proactive.make_reshare sharing target ~dealer:(Prng.int rng 4) rng
      in
      Codec.encode_reshare_pkg fps pkg)
    QCheck2.Gen.int

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

let reencode_refresh s =
  match Codec.decode_refresh_pkg fps s with
  | None -> None
  | Some p -> Some (Codec.encode_refresh_pkg fps p)

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
      (fun frame -> reencode_refresh frame = Some frame);
    qtest ~count:200 "refresh pkg codec: every proper prefix is rejected"
      gen_refresh_frame
      (fun frame ->
        let ok = ref true in
        for len = 0 to String.length frame - 1 do
          if Codec.decode_refresh_pkg fps (String.sub frame 0 len) <> None
          then ok := false
        done;
        !ok && Codec.decode_refresh_pkg fps (frame ^ "x") = None);
    qtest ~count:200 "refresh pkg codec: single bit flip stays canonical"
      QCheck2.Gen.(triple gen_refresh_frame small_nat (1 -- 7))
      (fun (frame, pos, bit) ->
        let flipped = flip_bit frame pos bit in
        match reencode_refresh flipped with
        | None -> true
        | Some re -> re = flipped);
    qtest ~count:100 "refresh pkg: a bit flipped in transit never verifies"
      QCheck2.Gen.(triple QCheck2.Gen.int small_nat (0 -- 7))
      (fun (seed, pos, bit) ->
        let sharing = Lazy.force fsharing in
        let rng = Prng.create ~seed:(seed lxor 0x5e9) in
        let pkg = Proactive.make_refresh sharing ~dealer:(Prng.int rng 4) rng in
        let frame = Codec.encode_refresh_pkg fps pkg in
        let flipped = flip_bit frame pos bit in
        (* Acceptance in the epoch protocol is [verify_refresh] plus the
           channel binding dealer = sender; a flip must fail one. *)
        match Codec.decode_refresh_pkg fps flipped with
        | None -> true
        | Some pkg' ->
          Codec.encode_refresh_pkg fps pkg' = frame
          || not
               (Proactive.verify_refresh sharing pkg'
               && pkg'.Proactive.dealer = pkg.Proactive.dealer));
    qtest ~count:100 "refresh pkg: any single corrupted field never verifies"
      QCheck2.Gen.int
      (fun seed ->
        let sharing = Lazy.force fsharing in
        let rng = Prng.create ~seed:(seed lxor 0x0dd) in
        let pkg = Proactive.make_refresh sharing ~dealer:(Prng.int rng 4) rng in
        let delta = nonzero_exp rng in
        let bad =
          match Prng.int rng 4 with
          | 0 -> { pkg with Proactive.dealer = (pkg.Proactive.dealer + 1) mod 4 }
          | 1 ->
            let k = Prng.int rng (List.length pkg.Proactive.deltas) in
            { pkg with
              Proactive.deltas =
                List.mapi
                  (fun i (ss : Lsss.subshare) ->
                    if i <> k then ss
                    else
                      { ss with
                        Lsss.value = B.add_mod ss.Lsss.value delta fps.G.q })
                  pkg.Proactive.deltas }
          | 2 ->
            let keys = Array.copy pkg.Proactive.delta_keys in
            let k = Prng.int rng (Array.length keys) in
            keys.(k) <- G.mul fps keys.(k) (G.exp_g fps delta);
            { pkg with Proactive.delta_keys = keys }
          | _ ->
            let k = Prng.int rng (List.length pkg.Proactive.deltas) in
            { pkg with
              Proactive.deltas =
                List.mapi
                  (fun i (ss : Lsss.subshare) ->
                    if i <> k then ss
                    else { ss with Lsss.party = (ss.Lsss.party + 1) mod 4 })
                  pkg.Proactive.deltas }
        in
        not
          (Proactive.verify_refresh sharing bad
          && bad.Proactive.dealer = pkg.Proactive.dealer));
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

let suite =
  ( "fuzz",
    fuzz_tests @ codec_tests @ ckpt_codec_tests @ link_fuzz_tests
    @ crypto_fuzz_tests @ svc_codec_tests @ epoch_codec_tests )
