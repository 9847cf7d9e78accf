(* The kernel benchmark: wall-clock ns/op of every kernel the stack's
   cost rests on, timed by one loop ({!time_ns}), written to
   BENCH_NUM.json as the same bench report as the protocol experiments
   ({!Bench_out.document}), so [bench-check] and [sintra compare] work on
   it unchanged.  Every row is [ns_per_op{kernel,...}]:

   - the two exponentiation kernels against their naive counterparts:
     the one variable-base Straus loop ([Montgomery.pow_multi]) as a
     single-base [Bignum.pow_mod] ([pow_mod_window]) and as the two-base
     [Bignum.pow_multi_mod] ([exp2], against [two_pow_mod_mul]), and the
     fixed-base comb ([fixed_base_exp_g], [Schnorr_group.exp_g]); plus
     [mul], [divmod], [gcd] and [inv_mod], at 128/512/1024-bit odd
     moduli, and one Montgomery product ([mont_mul]) at 128 and 192
     bits;
   - the DLEQ batch sweep, whose rows carry their pass limits
     ({!dleq_gate});
   - the protocol kernels of the paper's practicality claim (§2.1):
     hashing, the random-oracle challenge, Schnorr signatures, the coin,
     TDH2 and threshold RSA over the protocol tests' keyrings, and one
     steady-state scheduler step.

   Every kernel speedup is an info row and the report's "config" states
   whether the run was quick.

   The moduli are random odd numbers of exactly the requested size, not
   primes: none of the kernels cares about primality, and safe-prime
   generation at 1024 bits would dominate the benchmark run. *)

module B = Bignum
module G = Schnorr_group
module AS = Adversary_structure

(* The pre-PR-2 ladder: plain square-and-multiply with a full division
   at every step.  This is the baseline the tentpole replaces. *)
let naive_pow_mod ~base ~exp ~modulus =
  let b = ref (B.erem base modulus) and r = ref B.one in
  let nb = B.numbits exp in
  for i = 0 to nb - 1 do
    if B.testbit exp i then r := B.erem (B.mul !r !b) modulus;
    if i < nb - 1 then b := B.erem (B.mul !b !b) modulus
  done;
  !r

(* Wall-clock ns/op: one warm-up call (which also absorbs one-off
   precomputation such as the Montgomery context), then batches of calls
   until [min_time] seconds have elapsed.  The clock is read once per
   batch, and the batch doubles until one takes about 1 ms, so the clock
   read does not weigh on a sub-microsecond kernel.  Crypto ops are
   counted in the warm-up call only: the timed repetitions depend on the
   host's speed, and the report's op counts must not. *)
let time_ns ~min_time (f : unit -> unit) : float =
  f ();
  let counting = Obs_crypto.enabled () in
  Obs_crypto.disable ();
  let batch = ref 1 and calls = ref 0 and elapsed = ref 0.0 in
  while !elapsed < min_time do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to !batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    elapsed := !elapsed +. dt;
    calls := !calls + !batch;
    if dt < 1e-3 then batch := 2 * !batch
  done;
  if counting then Obs_crypto.enable ();
  !elapsed /. float_of_int !calls *. 1e9

(* Random odd modulus with the top bit set, so it has exactly [bits]
   bits and takes the Montgomery path. *)
let random_odd_modulus rng ~bits =
  let m = Prng.bignum_below rng (B.shift_left B.one (bits - 1)) in
  let m = B.add m (B.shift_left B.one (bits - 1)) in
  if B.is_even m then B.succ m else m

(* The DLEQ batch gate over [(batch, per-share ns)] in batch order, for
   the batch sizes [1; 2; 4; 8; 16] the sweep times: the batch-8
   speedup over single proofs must reach 3x, and the per-share cost may
   rise by at most 25% (timer noise) from one batch size to the next.
   Quick runs time 0.02 s windows, too noisy for the real gate, and are
   held to 1.5x and 2x. *)
let dleq_gate ~quick per_share =
  let rec rise acc = function
    | (_, a) :: ((_, b) :: _ as rest) -> rise (Float.max acc (b /. a)) rest
    | _ -> acc
  in
  Report.
    [ threshold Higher "dleq batch-8 speedup"
        ~limit:(if quick then 1.5 else 3.0)
        (List.assoc 1 per_share /. List.assoc 8 per_share);
      threshold Lower "dleq per-share cost rise"
        ~limit:(if quick then 2.0 else 1.25)
        (rise 0.0 per_share) ]

type sample = {
  kernel : string;
  labels : (string * string) list;  (* bits, and batch, n, ... *)
  ns_per_op : float;
}

let bits b = ("bits", string_of_int b)

(* The protocol kernels over the keyrings the protocol tests deal (n = 4,
   t = 1; n = 7, t = 2 for the one-bad-share combine; the 128-bit
   default group, 192-bit RSA), then one steady-state scheduler step.
   Every operand is built before the first row is timed. *)
let protocol_kernels sample =
  let rng = Prng.create ~seed:1 in
  let kr = Keyring.deal ~rsa_bits:192 ~seed:4242 (AS.threshold ~n:4 ~t:1) in
  let ps = kr.Keyring.group and coin = kr.Keyring.coin and enc = kr.Keyring.enc in
  let group = [ bits (B.numbits ps.G.p) ] in
  let shared = group @ [ ("n", "4") ] in
  let coin_shares =
    List.init 2 (fun i -> (i, Coin.generate_share coin ~party:i ~name:"bench"))
  in
  let ct = Tdh2.encrypt enc rng ~label:"bench" "a fairly short message" in
  let checked = Option.get (Tdh2.check enc ct) in
  let dec_shares =
    List.filter_map
      (fun i ->
        Option.map (fun s -> (i, s)) (Tdh2.decryption_share enc ~party:i ct))
      [ 0; 1 ]
  in
  let rsa_keys (kr : Keyring.t) =
    match kr.Keyring.service with
    | Keyring.Rsa_keys keys -> keys
    | Keyring.Cert_keys _ -> assert false
  in
  let rsa = rsa_keys kr in
  let rsa_group n =
    [ bits (B.numbits rsa.Rsa_threshold.pk.Rsa_threshold.n_modulus);
      ("n", string_of_int n) ]
  in
  let rsa_shares =
    List.map (fun i -> Rsa_threshold.sign_share rsa ~party:i "bench-msg") [ 0; 1 ]
  in
  (* What a client combines when one of the first k = 3 bare replies at
     n = 7 is bad: the first combination fails, the subset search runs. *)
  let rsa7 =
    rsa_keys (Keyring.deal ~rsa_bits:192 ~seed:4242 (AS.threshold ~n:7 ~t:2))
  in
  let one_bad =
    List.map
      (fun i ->
        let s = Rsa_threshold.bare_share rsa7 ~party:i "bench-msg" in
        if i = 0 then { s with Rsa_threshold.x = B.succ s.Rsa_threshold.x }
        else s)
      [ 0; 1; 2; 3 ]
  in
  let exp_e = G.random_exponent ps rng in
  let kp = Schnorr_sig.generate ps rng in
  let sg = Schnorr_sig.sign ps kp "bench-msg" in
  (* A Schnorr challenge's oracle input: the domain, the commitment, the
     public key and a 28-byte message, 108 bytes once encoded. *)
  let challenge =
    [ G.elt_to_bytes ps (G.exp_g ps exp_e); G.elt_to_bytes ps kp.Schnorr_sig.pk;
      String.make 28 'm' ]
  in
  assert (String.length (Ro.encode ("sintra/schnorr/c" :: challenge)) = 108);
  let kilobyte = String.make 1024 'x' and block = String.make 64 'x' in
  let hash_ctx = Sha256.init () in
  List.iter
    (fun (kernel, labels, f) -> ignore (sample kernel labels f))
    [ ("group_exp", group, fun () -> ignore (G.exp_g ps exp_e));
      ("sha256", [ ("bytes", "1024") ], fun () -> ignore (Sha256.digest kilobyte));
      (* one compression: the context is at a block boundary *)
      ("sha256_block", [ ("bytes", "64") ], fun () -> Sha256.feed hash_ctx block);
      ( "ro_challenge", group,
        fun () ->
          ignore (G.hash_to_exponent ps ~domain:"sintra/schnorr/c" challenge) );
      ("schnorr_sign", group, fun () -> ignore (Schnorr_sig.sign ps kp "bench-msg"));
      ( "schnorr_verify", group,
        fun () -> ignore (Schnorr_sig.verify ps ~pk:kp.Schnorr_sig.pk "bench-msg" sg) );
      ( "coin_share", shared,
        fun () -> ignore (Coin.generate_share coin ~party:0 ~name:"bench") );
      ( "coin_verify", shared,
        fun () ->
          ignore
            (Coin.verify_share coin ~party:0 ~name:"bench" (List.assoc 0 coin_shares)) );
      ( "coin_combine", shared,
        fun () ->
          ignore
            (Coin.combine coin ~name:"bench" ~avail:(Pset.of_list [ 0; 1 ]) coin_shares
               ()) );
      ( "tdh2_encrypt", shared,
        fun () -> ignore (Tdh2.encrypt enc rng ~label:"bench" "a fairly short message") );
      ( "tdh2_dec_share", shared,
        fun () -> ignore (Tdh2.decryption_share enc ~party:0 ct) );
      ( "tdh2_combine", shared,
        fun () ->
          ignore (Tdh2.combine enc checked ~avail:(Pset.of_list [ 0; 1 ]) dec_shares) );
      ( "rsa_sign_share", rsa_group 4,
        fun () -> ignore (Rsa_threshold.sign_share rsa ~party:0 "bench-msg") );
      ( "rsa_reply_share", rsa_group 4,
        fun () -> ignore (Rsa_threshold.bare_share rsa ~party:0 "bench-msg") );
      ( "rsa_verify_share", rsa_group 4,
        fun () ->
          ignore (Rsa_threshold.verify_share rsa "bench-msg" (List.hd rsa_shares)) );
      ( "rsa_combine", rsa_group 4,
        fun () -> ignore (Rsa_threshold.combine rsa "bench-msg" rsa_shares) );
      ( "rsa_combine_one_bad", rsa_group 7,
        fun () -> ignore (Rsa_threshold.combine rsa7 "bench-msg" one_bad) ) ];
  (* The scheduler in steady state: each call sends one envelope and
     steps once under [Random_order], so the queue stays at [pending].
     The chaos spec has the 12 client-link overrides of the lossy-crash
     workload and no fault, so it adds the per-link lookups and nothing
     else. *)
  List.iter
    (fun pending ->
      List.iter
        (fun chaos ->
          let sim : int Sim.t = Sim.create ~n:4 ~seed:1 () in
          for p = 0 to 11 do
            Sim.set_handler sim p (fun ~src:_ _ -> ())
          done;
          if chaos then
            Sim.set_chaos sim
              (Some
                 { Sim.benign_chaos with
                   Sim.links =
                     List.concat_map
                       (fun r -> List.init 3 (fun i -> ((r, 4 + i), Sim.no_fault)))
                       [ 0; 1; 2; 3 ] });
          let i = ref 0 in
          let send () =
            incr i;
            Sim.send sim ~src:(!i mod 4) ~dst:(!i mod 7) !i
          in
          for _ = 1 to pending do
            send ()
          done;
          ignore @@ sample "sim_step"
            [ ("pending", string_of_int pending);
              ("chaos", if chaos then "on" else "off") ]
            (fun () ->
              send ();
              ignore (Sim.step sim)))
        [ false; true ])
    [ 100; 1_000; 10_000 ]

let run ?(out = "BENCH_NUM.json") ?(quick = false) () : unit =
  let min_time = if quick then 0.02 else 0.2 in
  let sizes = [ 128; 512; 1024 ] in
  let rng = Prng.create ~seed:0xBE7C4 in
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  let t0 = Unix.gettimeofday () in
  let samples = ref [] in
  let speedups = ref [] in
  let sample kernel labels f =
    let ns = time_ns ~min_time f in
    samples := { kernel; labels; ns_per_op = ns } :: !samples;
    Printf.printf "[bench-num] %-20s %-22s %12.0f ns/op\n%!" kernel
      (String.concat ","
         (List.map (fun (l, v) -> Printf.sprintf "%s=%s" l v) labels))
      ns;
    ns
  in
  let speedup name bits v =
    speedups := (Printf.sprintf "%s_%d" name bits, v) :: !speedups
  in
  List.iter
    (fun b ->
      let m = random_odd_modulus rng ~bits:b in
      let base = Prng.bignum_below rng m in
      let exp = Prng.bignum_below rng m in
      (* the bench guards itself: both ladders must agree *)
      let expect = naive_pow_mod ~base ~exp ~modulus:m in
      assert (B.equal expect (B.pow_mod ~base ~exp ~modulus:m));
      let sample kernel f = sample kernel [ bits b ] f in
      let naive =
        sample "naive_pow_mod" (fun () -> ignore (naive_pow_mod ~base ~exp ~modulus:m))
      in
      let window =
        sample "pow_mod_window" (fun () -> ignore (B.pow_mod ~base ~exp ~modulus:m))
      in
      speedup "pow_mod_window" b (naive /. window);
      (* Group-level kernels over the same modulus: primality does not
         matter for cost, only the operand sizes do. *)
      let q = B.shift_right (B.pred m) 1 in
      let g = B.mul_mod base base m in
      let ps = G.unsafe_params ~p:m ~q ~g in
      let e1 = Prng.bignum_below rng q and e2 = Prng.bignum_below rng q in
      let a = B.mul_mod exp exp m in
      G.prepare_base ps ps.G.g;
      let fixed = sample "fixed_base_exp_g" (fun () -> ignore (G.exp_g ps e1)) in
      speedup "fixed_base_exp_g" b (window /. fixed);
      let two_pow =
        sample "two_pow_mod_mul" (fun () ->
            ignore
              (B.mul_mod
                 (B.pow_mod ~base:a ~exp:e1 ~modulus:m)
                 (B.pow_mod ~base ~exp:e2 ~modulus:m)
                 m))
      in
      let exp2 =
        sample "exp2" (fun () ->
            ignore (B.pow_multi_mod [ (a, e1); (base, e2) ] ~modulus:m))
      in
      speedup "exp2" b (two_pow /. exp2);
      (* informational rows: the schoolbook product and division, the
         Lehmer gcd and inverse over operands of the modulus size *)
      let product = B.mul base exp in
      ignore (sample "mul" (fun () -> ignore (B.mul base exp)));
      ignore (sample "divmod" (fun () -> ignore (B.divmod product m)));
      ignore (sample "gcd" (fun () -> ignore (B.gcd exp m)));
      ignore (sample "inv_mod" (fun () -> ignore (B.inv_mod base m))))
    sizes;
  (* One Montgomery product ([Montgomery.mul_into], in place) at the
     group's 128 bits (k = 5) and the RSA modulus's 192 (k = 7), the two
     moduli the stack's crypto multiplies under. *)
  List.iter
    (fun b ->
      let limbs n =
        Limbs.normalize
          (Array.init ((n + 30) / 31) (fun i -> Prng.bits rng (min 31 (n - (31 * i)))))
      in
      let m = limbs b in
      m.(0) <- m.(0) lor 1;
      m.(Array.length m - 1) <- m.(Array.length m - 1) lor (1 lsl ((b - 1) mod 31));
      let ctx = Option.get (Montgomery.create m) in
      let x = Montgomery.to_mont ctx (limbs (b - 1)) in
      let y = Montgomery.to_mont ctx (limbs (b - 1)) in
      let u = Array.copy x and r = Array.copy x in
      ignore (sample "mont_mul" [ bits b ] (fun () -> Montgomery.mul_into ctx u x y 0 r)))
    [ 128; 192 ];
  (* DLEQ batch-verification sweep (the PR 7 crypto hot path): per-share
     cost of checking k coin/TDH2-shaped share proofs at once, against
     the k = 1 seed path (plain per-proof [Dleq.verify]).  Uses the real
     deterministic Schnorr group shared with the protocol tests, so the
     numbers match what the simulator pays. *)
  let ps = G.default () in
  let dleq_domain = "sintra/bench/dleq" in
  let g2 = G.hash_to_elt ps ~domain:(dleq_domain ^ "/base") [ "sweep" ] in
  G.prepare_base ps g2;
  ignore (G.exp_g ps B.one) (* build the generator's table too *);
  let proofs =
    List.init 16 (fun i ->
        let x =
          G.hash_to_exponent ps ~domain:(dleq_domain ^ "/x") [ string_of_int i ]
        in
        let h1 = G.exp_g ps x and h2 = G.exp ps g2 x in
        let proof =
          Dleq.prove ps ~domain:dleq_domain ~x ~g1:ps.G.g ~h1 ~g2 ~h2
        in
        ({ Dleq.g1 = ps.G.g; h1; g2; h2 }, proof))
  in
  let group_bits = B.numbits ps.G.p in
  let batch_sizes = [ 1; 2; 4; 8; 16 ] in
  (* The sizes are timed round-robin over several short rounds and each
     keeps its median per-share cost, so a slow spell of the host lands
     in one round of every size instead of in all of one size's
     window. *)
  let rounds = if quick then 3 else 9 in
  let slice = min_time /. 2.0 in
  let verify k =
    let batch = List.filteri (fun i _ -> i < k) proofs in
    (* the bench guards itself: a valid batch must pass, a corrupted
       one must fail *)
    assert (Dleq.batch_verify ps ~domain:dleq_domain batch);
    (match batch with
    | (s, p) :: rest ->
      assert (
        not
          (Dleq.batch_verify ps ~domain:dleq_domain
             ((s, { p with Dleq.z = B.succ p.Dleq.z }) :: rest)))
    | [] -> ());
    if k = 1 then
      let s, p = List.hd batch in
      fun () ->
        assert (
          Dleq.verify ps ~domain:dleq_domain ~g1:s.Dleq.g1 ~h1:s.Dleq.h1
            ~g2:s.Dleq.g2 ~h2:s.Dleq.h2 p)
    else fun () -> assert (Dleq.batch_verify ps ~domain:dleq_domain batch)
  in
  let runs = List.map (fun k -> (k, verify k, ref [])) batch_sizes in
  for _ = 1 to rounds do
    List.iter
      (fun (k, f, times) ->
        times := (time_ns ~min_time:slice f /. float_of_int k) :: !times)
      runs
  done;
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let per_share = List.map (fun (k, _, times) -> (k, median !times)) runs in
  List.iter
    (fun (k, ns) ->
      samples :=
        { kernel = "dleq_verify";
          labels = [ bits group_bits; ("batch", string_of_int k) ];
          ns_per_op = ns }
        :: !samples;
      if k > 1 then
        speedups :=
          (Printf.sprintf "dleq_batch_%d_vs_1" k, List.assoc 1 per_share /. ns)
          :: !speedups)
    per_share;
  Printf.printf "[bench-num] dleq %d-bit per-share ns:%s (batch 8: %.2fx)\n%!"
    group_bits
    (String.concat ""
       (List.map (fun (k, ns) -> Printf.sprintf " k=%d %.0f" k ns) per_share))
    (List.assoc "dleq_batch_8_vs_1" !speedups);
  protocol_kernels sample;
  let wall = Unix.gettimeofday () -. t0 in
  Obs_crypto.disable ();
  let obs = Obs.create () in
  List.iter
    (fun s ->
      Obs.incr obs ~labels:(("kernel", s.kernel) :: s.labels)
        ~by:(int_of_float s.ns_per_op) "ns_per_op")
    !samples;
  (* The speedups as info rows, but batch 8's, which the gate states. *)
  let speedup_rows =
    List.rev !speedups
    |> List.filter (fun (k, _) -> k <> "dleq_batch_8_vs_1")
    |> List.map (fun (k, v) -> Report.info ("speedup " ^ k) v)
  in
  let doc =
    Bench_out.document ~id:"NUM" ~wall
      ~gate:(dleq_gate ~quick per_share @ speedup_rows)
      ~config:(Obs_json.Obj [ ("quick", Obs_json.Bool quick) ])
      obs
  in
  Obs_crypto.reset ();
  Printf.printf "[bench-num] wrote %s\n%!" (Report.write out doc)
