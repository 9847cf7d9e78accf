(* Reference rows of the traced pass: the warm per-call cost of each
   public crypto entry point the service path uses, on the workload's own
   keyring, and a fixed modular-exponentiation kernel whose time shows
   how fast the host ran. *)

let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0. else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let batches = 5

(* Microseconds per call: the median of [batches] batches, each calling
   [f] for about [budget] seconds after one warm-up call. *)
let unit_us ~budget f =
  f ();
  let batch () =
    let t0 = now () and k = ref 0 in
    while !k = 0 || now () -. t0 < budget do
      f ();
      incr k
    done;
    (now () -. t0) *. 1e6 /. float_of_int !k
  in
  median (List.init batches (fun _ -> batch ()))

let check what ok = if not ok then failwith ("reference input rejected: " ^ what)

let crypto_us ~budget (kr : Keyring.t) (rc : Service.reply_cert) =
  let g = kr.Keyring.group in
  let rng = Prng.create ~seed:0x7e5 in
  let base = Prng.bignum_below rng g.Schnorr_group.p in
  let exp = Prng.bignum_below rng g.Schnorr_group.q in
  let msg = "sintra-bench reference statement" in
  let sg = Keyring.sign kr ~party:0 msg in
  check "party signature" (Keyring.verify_party_signature kr ~party:0 msg sg);
  let q = Option.get (Adversary_structure.min_big_quorum_size kr.structure) in
  let cert =
    Option.get
      (Keyring.make_cert kr msg
         (List.init q (fun p -> (p, Keyring.cert_share kr ~party:p msg))))
  in
  check "quorum certificate" (Keyring.verify_cert kr msg cert);
  let share = Keyring.service_sign_share kr ~party:0 msg in
  check "service share" (Keyring.service_verify_share kr ~party:0 msg share);
  check "reply certificate" (Service.verify_reply_cert kr rc);
  let coin = Coin.generate_share kr.coin ~party:0 ~name:"bench-coin" in
  check "coin share" (Coin.verify_share kr.coin ~party:0 ~name:"bench-coin" coin);
  let ct = Tdh2.encrypt kr.enc rng ~label:"bench" "sintra-bench plaintext" in
  check "ciphertext" (Tdh2.decryption_share kr.enc ~party:0 ct <> None);
  (* At the reference host speed, from probes just before and after. *)
  let time f =
    let h = Host.create () in
    Host.probe h;
    let us = unit_us ~budget (fun () -> ignore (Sys.opaque_identity (f ()))) in
    Host.probe h;
    us *. Host.speed h
  in
  [
    ("crypto.pow_mod_us", time (fun () -> Bignum.pow_mod ~base ~exp ~modulus:g.p));
    ("crypto.party_verify_us",
      time (fun () -> Keyring.verify_party_signature kr ~party:0 msg sg));
    ("crypto.cert_verify_us", time (fun () -> Keyring.verify_cert kr msg cert));
    ("crypto.sig_share_us", time (fun () -> Keyring.service_sign_share kr ~party:0 msg));
    ("crypto.sig_share_verify_us",
      time (fun () -> Keyring.service_verify_share kr ~party:0 msg share));
    ("crypto.reply_cert_verify_us", time (fun () -> Service.verify_reply_cert kr rc));
    ("crypto.coin_verify_us",
      time (fun () -> Coin.verify_share kr.coin ~party:0 ~name:"bench-coin" coin));
    ("crypto.tdh2_share_us", time (fun () -> Tdh2.decryption_share kr.enc ~party:0 ct));
  ]

(* A fixed amount of work: 4,000 exponentiations in the 128-bit group
   with fixed inputs.  Milliseconds. *)
let kernel_ms () =
  let g = Schnorr_group.default ~bits:Workload.group_bits () in
  let rng = Prng.create ~seed:0x6b65726e in
  let base = Prng.bignum_below rng g.p and exp = Prng.bignum_below rng g.q in
  let t0 = now () in
  for _ = 1 to 4_000 do
    ignore (Sys.opaque_identity (Bignum.pow_mod ~base ~exp ~modulus:g.p))
  done;
  (now () -. t0) *. 1e3
