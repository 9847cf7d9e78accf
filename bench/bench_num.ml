(* Micro-benchmarks for the modular-arithmetic fast paths.

   Times the kernels that PR 2 introduced — Montgomery-window
   [Bignum.pow_mod], the fixed-base [Schnorr_group.exp_g] table, and the
   shared-squaring-chain [exp2] — against their naive counterparts at
   128/512/1024-bit odd moduli, and writes BENCH_NUM.json as the same
   bench report as the protocol experiments ({!Bench_out.document}), so
   [bench-check] and [sintra compare] work on it unchanged; its DLEQ
   batch rows carry their pass limits ({!dleq_gate}), every kernel
   speedup is an info row and its "config" states whether the run was
   quick.

   The moduli are random odd numbers of exactly the requested size, not
   primes: none of the kernels cares about primality, and safe-prime
   generation at 1024 bits would dominate the benchmark run. *)

module B = Bignum
module G = Schnorr_group

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

(* Wall-clock ns/op: repeat [f] until [min_time] seconds have elapsed
   (after one warm-up call, which also absorbs one-off precomputation
   such as the Montgomery context).  Crypto ops are counted in the
   warm-up call only: the timed repetitions depend on the host's speed,
   and the report's op counts must not. *)
let time_ns ~min_time (f : unit -> unit) : float =
  f ();
  let counting = Obs_crypto.enabled () in
  Obs_crypto.disable ();
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time || !n = 0 do
    f ();
    incr n;
    elapsed := Unix.gettimeofday () -. t0
  done;
  if counting then Obs_crypto.enable ();
  !elapsed /. float_of_int !n *. 1e9

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
  bits : int;
  batch : int option;  (* DLEQ sweep rows carry their batch size *)
  ns_per_op : float;
}

let run ?(out = "BENCH_NUM.json") ?(quick = false) () : unit =
  let min_time = if quick then 0.02 else 0.2 in
  let sizes = [ 128; 512; 1024 ] in
  let rng = Prng.create ~seed:0xBE7C4 in
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  let t0 = Unix.gettimeofday () in
  let samples = ref [] in
  let speedups = ref [] in
  let sample ?batch kernel bits f =
    let ns = time_ns ~min_time f in
    samples := { kernel; bits; batch; ns_per_op = ns } :: !samples;
    ns
  in
  List.iter
    (fun bits ->
      let m = random_odd_modulus rng ~bits in
      let base = Prng.bignum_below rng m in
      let exp = Prng.bignum_below rng m in
      (* the bench guards itself: both ladders must agree *)
      let expect = naive_pow_mod ~base ~exp ~modulus:m in
      assert (B.equal expect (B.pow_mod ~base ~exp ~modulus:m));
      let naive =
        sample "naive_pow_mod" bits (fun () ->
            ignore (naive_pow_mod ~base ~exp ~modulus:m))
      in
      let window =
        sample "pow_mod_window" bits (fun () ->
            ignore (B.pow_mod ~base ~exp ~modulus:m))
      in
      speedups :=
        (Printf.sprintf "pow_mod_window_%d" bits, naive /. window)
        :: !speedups;
      (* Group-level kernels over the same modulus: primality does not
         matter for cost, only the operand sizes do. *)
      let q = B.shift_right (B.pred m) 1 in
      let g = B.mul_mod base base m in
      let ps = G.unsafe_params ~p:m ~q ~g in
      let e1 = Prng.bignum_below rng q and e2 = Prng.bignum_below rng q in
      let a = B.mul_mod exp exp m in
      G.prepare_base ps g;
      let fixed =
        sample "fixed_base_exp_g" bits (fun () -> ignore (G.exp_g ps e1))
      in
      speedups :=
        (Printf.sprintf "fixed_base_exp_g_%d" bits, window /. fixed)
        :: !speedups;
      let two_pow =
        sample "two_pow_mod_mul" bits (fun () ->
            ignore
              (B.mul_mod
                 (B.pow_mod ~base:a ~exp:e1 ~modulus:m)
                 (B.pow_mod ~base ~exp:e2 ~modulus:m)
                 m))
      in
      let exp2 =
        sample "exp2" bits (fun () ->
            ignore (B.pow2_mod ~b1:a ~e1 ~b2:base ~e2 ~modulus:m))
      in
      speedups :=
        (Printf.sprintf "exp2_%d" bits, two_pow /. exp2) :: !speedups;
      (* informational rows: the Lehmer gcd and inverse over operands of
         the modulus size *)
      let gcd = sample "gcd" bits (fun () -> ignore (B.gcd exp m)) in
      let inv = sample "inv_mod" bits (fun () -> ignore (B.inv_mod base m)) in
      Printf.printf
        "[bench-num] %4d-bit: naive %9.0f ns/op, window %9.0f ns/op \
         (%.2fx), fixed-base %9.0f ns/op, exp2 %9.0f vs 2x pow_mod %9.0f \
         ns/op (%.2fx), gcd %7.0f ns/op, inv_mod %7.0f ns/op\n\
         %!"
        bits naive window (naive /. window) fixed exp2 two_pow
        (two_pow /. exp2) gcd inv)
    sizes;
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
          Ro.hash_to_bignum_below ~domain:(dleq_domain ^ "/x")
            [ string_of_int i ] ps.G.q
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
        { kernel = "dleq_verify"; bits = group_bits; batch = Some k;
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
  let wall = Unix.gettimeofday () -. t0 in
  Obs_crypto.disable ();
  let obs = Obs.create () in
  List.iter
    (fun s ->
      let labels =
        [ ("kernel", s.kernel); ("bits", string_of_int s.bits) ]
        @ Option.fold ~none:[]
            ~some:(fun k -> [ ("batch", string_of_int k) ])
            s.batch
      in
      Obs.incr obs ~labels ~by:(int_of_float s.ns_per_op) "ns_per_op")
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
