(* Tests for the bignum substrate: cross-checks against native ints,
   algebraic laws as qcheck properties, and primality known answers. *)

module B = Bignum

let b = Alcotest.testable B.pp B.equal

let check_b = Alcotest.check b

(* Generator: random Bignum with up to [bits] bits, signed. *)
let gen_bignum ?(bits = 200) () =
  QCheck2.Gen.(
    let* nb = int_range 0 bits in
    let* neg = bool in
    let* s = string_size ~gen:char (return ((nb + 7) / 8)) in
    let v = B.shift_right (B.of_bytes_be s) (max 0 ((8 * String.length s) - nb)) in
    return (if neg then B.neg v else v))

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let small_int_pairs =
  QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))

let unit_tests =
  [ Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        List.iter
          (fun x ->
            Alcotest.(check (option int)) "roundtrip" (Some x) (B.to_int_opt (B.of_int x)))
          [ 0; 1; -1; 42; -42; max_int / 4; -(max_int / 4); 1 lsl 40 ]);
    Alcotest.test_case "string roundtrip" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-99999999999999999999" ]);
    Alcotest.test_case "hex roundtrip" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (B.to_hex (B.of_hex s)))
          [ "1"; "deadbeef"; "123456789abcdef0123456789abcdef" ]);
    Alcotest.test_case "known multiplication" `Quick (fun () ->
        let a = B.of_string "123456789123456789123456789" in
        let bb = B.of_string "987654321987654321987654321" in
        check_b "product"
          (B.of_string "121932631356500531591068431581771069347203169112635269")
          (B.mul a bb));
    Alcotest.test_case "known division" `Quick (fun () ->
        let a = B.of_string "121932631356500531591068431581771069347203169112635269" in
        let bb = B.of_string "987654321987654321987654321" in
        let q, r = B.divmod a bb in
        check_b "quotient" (B.of_string "123456789123456789123456789") q;
        check_b "remainder" B.zero r);
    Alcotest.test_case "pow_mod known" `Quick (fun () ->
        (* 2^10 mod 1000 = 24 *)
        check_b "2^10 mod 1000" (B.of_int 24)
          (B.pow_mod ~base:B.two ~exp:(B.of_int 10) ~modulus:(B.of_int 1000));
        (* Fermat: 2^(p-1) = 1 mod p for prime p *)
        let p = B.of_string "1000000007" in
        check_b "fermat" B.one
          (B.pow_mod ~base:B.two ~exp:(B.pred p) ~modulus:p));
    Alcotest.test_case "inv_mod" `Quick (fun () ->
        let p = B.of_string "1000000007" in
        (match B.inv_mod (B.of_int 12345) p with
        | None -> Alcotest.fail "expected inverse"
        | Some i -> check_b "inv" B.one (B.mul_mod i (B.of_int 12345) p));
        Alcotest.(check bool)
          "no inverse" true
          (B.inv_mod (B.of_int 6) (B.of_int 12) = None));
    Alcotest.test_case "shift identities" `Quick (fun () ->
        let v = B.of_string "123456789123456789123456789123456789" in
        check_b "left-right" v (B.shift_right (B.shift_left v 100) 100);
        check_b "shift = mul pow2" (B.shift_left v 65)
          (B.mul v (B.pow_mod ~base:B.two ~exp:(B.of_int 65)
                      ~modulus:(B.shift_left B.one 200))));
    Alcotest.test_case "numbits" `Quick (fun () ->
        Alcotest.(check int) "0" 0 (B.numbits B.zero);
        Alcotest.(check int) "1" 1 (B.numbits B.one);
        Alcotest.(check int) "255" 8 (B.numbits (B.of_int 255));
        Alcotest.(check int) "256" 9 (B.numbits (B.of_int 256));
        Alcotest.(check int) "2^100" 101 (B.numbits (B.shift_left B.one 100)));
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let v = B.of_string "123456789123456789123456789" in
        check_b "be" v (B.of_bytes_be (B.to_bytes_be v));
        let padded = B.to_bytes_be ~len:32 v in
        Alcotest.(check int) "padded length" 32 (String.length padded);
        check_b "padded value" v (B.of_bytes_be padded));
    Alcotest.test_case "egcd bezout" `Quick (fun () ->
        let a = B.of_string "123456789123456789" in
        let bb = B.of_string "987654321987654" in
        let g, u, v = B.egcd a bb in
        check_b "bezout" g (B.add (B.mul u a) (B.mul v bb)));
    Alcotest.test_case "known primes" `Quick (fun () ->
        let rng = Prng.create ~seed:1 in
        List.iter
          (fun s ->
            Alcotest.(check bool) ("prime " ^ s) true
              (Primes.is_probable_prime rng (B.of_string s)))
          [ "2"; "3"; "65537"; "1000000007"; "2305843009213693951";
            (* 2^127-1, Mersenne prime *)
            "170141183460469231731687303715884105727" ]);
    Alcotest.test_case "known composites" `Quick (fun () ->
        let rng = Prng.create ~seed:2 in
        List.iter
          (fun s ->
            Alcotest.(check bool) ("composite " ^ s) false
              (Primes.is_probable_prime rng (B.of_string s)))
          [ "1"; "561" (* Carmichael *); "1000000008"; "25326001" (* strong pseudoprime to 2,3,5 *);
            "340282366920938463463374607431768211457" (* 2^128+1 *) ]);
    Alcotest.test_case "random prime has requested size" `Quick (fun () ->
        let rng = Prng.create ~seed:3 in
        let p = Primes.random_prime rng ~bits:96 in
        Alcotest.(check int) "bits" 96 (B.numbits p);
        Alcotest.(check bool) "prime" true (Primes.is_probable_prime rng p));
    Alcotest.test_case "safe prime" `Quick (fun () ->
        let rng = Prng.create ~seed:4 in
        let p, q = Primes.random_safe_prime rng ~bits:64 in
        check_b "p = 2q+1" p (B.succ (B.shift_left q 1));
        Alcotest.(check bool) "p prime" true (Primes.is_probable_prime rng p);
        Alcotest.(check bool) "q prime" true (Primes.is_probable_prime rng q));
    Alcotest.test_case "prng determinism" `Quick (fun () ->
        let r1 = Prng.create ~seed:99 and r2 = Prng.create ~seed:99 in
        for _ = 1 to 100 do
          Alcotest.(check int) "same stream" (Prng.int r1 1000) (Prng.int r2 1000)
        done);
    Alcotest.test_case "prng bounds" `Quick (fun () ->
        let r = Prng.create ~seed:7 in
        for _ = 1 to 1000 do
          let v = Prng.int r 17 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
        done)
  ]

let prop_tests =
  [ qtest "int cross-check add/sub/mul" small_int_pairs (fun (x, y) ->
        let bx = B.of_int x and by = B.of_int y in
        B.to_int_opt (B.add bx by) = Some (x + y)
        && B.to_int_opt (B.sub bx by) = Some (x - y)
        && B.to_int_opt (B.mul bx by) = Some (x * y));
    qtest "int cross-check divmod" small_int_pairs (fun (x, y) ->
        QCheck2.assume (y <> 0);
        let q, r = B.divmod (B.of_int x) (B.of_int y) in
        B.to_int_opt q = Some (x / y) && B.to_int_opt r = Some (x mod y));
    qtest "add commutative" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) -> B.equal (B.add x y) (B.add y x));
    qtest "mul commutative" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) -> B.equal (B.mul x y) (B.mul y x));
    qtest "mul distributes"
      (QCheck2.Gen.triple (gen_bignum ()) (gen_bignum ()) (gen_bignum ()))
      (fun (x, y, z) ->
        B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)));
    qtest "add associates"
      (QCheck2.Gen.triple (gen_bignum ()) (gen_bignum ()) (gen_bignum ()))
      (fun (x, y, z) -> B.equal (B.add (B.add x y) z) (B.add x (B.add y z)));
    qtest "sub inverse of add" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) -> B.equal x (B.sub (B.add x y) y));
    qtest "divmod invariant"
      (QCheck2.Gen.pair (gen_bignum ~bits:300 ()) (gen_bignum ~bits:150 ()))
      (fun (a, d) ->
        QCheck2.assume (not (B.is_zero d));
        let q, r = B.divmod a d in
        (* a word-sized divisor in [1, 2^31) taken from d *)
        let m =
          1 + Option.get (B.to_int_opt (B.erem d (B.of_int ((1 lsl 31) - 1))))
        in
        B.equal a (B.add (B.mul q d) r)
        && B.compare (B.abs r) (B.abs d) < 0
        && (B.is_zero r || B.sign r = B.sign a)
        && B.equal (B.of_int (B.rem_int a m)) (B.rem a (B.of_int m)));
    qtest "erem in range"
      (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ~bits:100 ()))
      (fun (a, d) ->
        QCheck2.assume (not (B.is_zero d));
        let r = B.erem a d in
        B.sign r >= 0 && B.compare r (B.abs d) < 0);
    qtest "string roundtrip" (gen_bignum ~bits:400 ()) (fun v ->
        B.equal v (B.of_string (B.to_string v)));
    qtest "hex roundtrip" (gen_bignum ~bits:400 ()) (fun v ->
        B.equal v (B.of_hex (B.to_hex v)));
    qtest "compare antisymmetric" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) -> B.compare x y = -B.compare y x);
    qtest "gcd divides" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) ->
        QCheck2.assume (not (B.is_zero x) || not (B.is_zero y));
        let g = B.gcd x y in
        B.is_zero (B.rem x g) && B.is_zero (B.rem y g));
    qtest "egcd bezout" (QCheck2.Gen.pair (gen_bignum ()) (gen_bignum ()))
      (fun (x, y) ->
        let g, u, v = B.egcd x y in
        B.equal g (B.add (B.mul u x) (B.mul v y)));
    qtest ~count:50 "pow_mod multiplicative"
      (QCheck2.Gen.triple (gen_bignum ~bits:80 ()) (QCheck2.Gen.int_range 0 50)
         (QCheck2.Gen.int_range 0 50))
      (fun (x, e1, e2) ->
        let m = B.of_string "170141183460469231731687303715884105727" in
        let x = B.abs x in
        B.equal
          (B.pow_mod ~base:x ~exp:(B.of_int (e1 + e2)) ~modulus:m)
          (B.mul_mod
             (B.pow_mod ~base:x ~exp:(B.of_int e1) ~modulus:m)
             (B.pow_mod ~base:x ~exp:(B.of_int e2) ~modulus:m)
             m));
    qtest ~count:50 "inv_mod correct"
      (gen_bignum ~bits:120 ())
      (fun x ->
        let p = B.of_string "170141183460469231731687303715884105727" in
        let x = B.erem (B.abs x) p in
        QCheck2.assume (not (B.is_zero x));
        match B.inv_mod x p with
        | None -> false
        | Some i -> B.equal B.one (B.mul_mod i x p));
    qtest "shift roundtrip"
      (QCheck2.Gen.pair (gen_bignum ()) (QCheck2.Gen.int_range 0 200))
      (fun (v, k) -> B.equal v (B.shift_right (B.shift_left v k) k));
    qtest ~count:60 "pow_mod agrees with naive modular squaring (moduli of any parity)"
      (QCheck2.Gen.triple (gen_bignum ~bits:260 ()) (gen_bignum ~bits:200 ())
         (gen_bignum ~bits:260 ()))
      (fun (base, e, m) ->
        let m = B.abs m and e = B.abs e and base = B.abs base in
        QCheck2.assume (B.compare m B.two > 0);
        (* naive square-and-multiply with plain erem at each step *)
        let naive =
          let b = ref (B.erem base m) and r = ref B.one in
          let nb = B.numbits e in
          for i = 0 to nb - 1 do
            if B.testbit e i then r := B.erem (B.mul !r !b) m;
            if i < nb - 1 then b := B.erem (B.mul !b !b) m
          done;
          !r
        in
        B.equal naive (B.pow_mod ~base ~exp:e ~modulus:m));
    qtest "bytes roundtrip" (gen_bignum ~bits:300 ()) (fun v ->
        let v = B.abs v in
        B.equal v (B.of_bytes_be (B.to_bytes_be v)))
  ]

(* Reference ladder for the fast-path cross-checks below: plain
   square-and-multiply with a full reduction at every step. *)
let naive_pow_mod ~base ~exp ~modulus =
  let b = ref (B.erem base modulus) and r = ref B.one in
  let nb = B.numbits exp in
  for i = 0 to nb - 1 do
    if B.testbit exp i then r := B.erem (B.mul !r !b) modulus;
    if i < nb - 1 then b := B.erem (B.mul !b !b) modulus
  done;
  if B.equal modulus B.one then B.zero else !r

(* An exponent of exactly [n] bits (zero for n = 0): the window widths
   of the Straus loop change at 24 and 96 bits. *)
let gen_exponent =
  QCheck2.Gen.(
    let* n = oneofl [ 0; 1; 4; 5; 23; 24; 95; 96; 127; 128; 260; 600 ] in
    let* low = gen_bignum ~bits:(max 0 (n - 1)) () in
    return (if n = 0 then B.zero else B.add (B.shift_left B.one (n - 1)) (B.abs low)))

(* Terms of a multi-exponentiation: 0 to 3 or 16 of them, signed bases
   of up to [bits] bits (often above the modulus), and, half the time,
   one base repeated in every other term. *)
let gen_terms ~bits () =
  QCheck2.Gen.(
    let* count = oneofl [ 0; 1; 2; 3; 16 ] in
    let* terms = list_repeat count (pair (gen_bignum ~bits ()) gen_exponent) in
    let* repeat = bool in
    return
      (match terms with
      | (b0, _) :: _ when repeat ->
        List.mapi (fun i (b, e) -> ((if i land 1 = 1 then b0 else b), e)) terms
      | _ -> terms))

(* A modulus above 2 of up to 260 bits, odd (the Montgomery path from
   62 bits) or even (the plain ladder) *)
let gen_modulus =
  QCheck2.Gen.(
    let* m = gen_bignum ~bits:260 () and* odd = bool in
    let m = B.abs m in
    let m = if odd && B.is_even m then B.succ m else m in
    return (if B.compare m B.two > 0 then m else B.of_int 1_000_003))

let fastpath_tests =
  [ Alcotest.test_case "pow_mod edge cases" `Quick (fun () ->
        let m = B.of_string "170141183460469231731687303715884105727" in
        (* modulus 1 short-circuits to 0, whatever the base/exponent *)
        check_b "mod 1" B.zero
          (B.pow_mod ~base:(B.of_int 7) ~exp:(B.of_int 5) ~modulus:B.one);
        (* 0^0 = 1 by convention; 0^e = 0 for e > 0 *)
        check_b "0^0" B.one (B.pow_mod ~base:B.zero ~exp:B.zero ~modulus:m);
        check_b "0^e" B.zero
          (B.pow_mod ~base:B.zero ~exp:(B.of_int 3) ~modulus:m);
        (* base >= modulus and negative bases reduce first *)
        check_b "base >= m" (B.pow_mod ~base:B.two ~exp:(B.of_int 10) ~modulus:m)
          (B.pow_mod ~base:(B.add m B.two) ~exp:(B.of_int 10) ~modulus:m);
        check_b "negative base"
          (B.pow_mod ~base:(B.sub m B.two) ~exp:(B.of_int 3) ~modulus:m)
          (B.pow_mod ~base:(B.neg B.two) ~exp:(B.of_int 3) ~modulus:m);
        (* negative exponents and non-positive moduli are rejected *)
        Alcotest.check_raises "negative exponent"
          (Invalid_argument "Bignum.pow_mod: negative exponent") (fun () ->
            ignore (B.pow_mod ~base:B.two ~exp:(B.neg B.one) ~modulus:m));
        Alcotest.check_raises "zero modulus"
          (Invalid_argument "Bignum.pow_mod: modulus must be positive")
          (fun () ->
            ignore (B.pow_mod ~base:B.two ~exp:B.one ~modulus:B.zero)));
    qtest ~count:40 "Montgomery-window pow_mod agrees with naive ladder (odd m)"
      (QCheck2.Gen.triple (gen_bignum ~bits:560 ()) (gen_bignum ~bits:520 ())
         (gen_bignum ~bits:520 ()))
      (fun (base, e, m) ->
        let base = B.abs base and e = B.abs e in
        (* force the modulus odd and large: the Montgomery window path *)
        let m = B.succ (B.shift_left (B.abs m) 1) in
        QCheck2.assume (B.compare m B.two > 0);
        B.equal (naive_pow_mod ~base ~exp:e ~modulus:m)
          (B.pow_mod ~base ~exp:e ~modulus:m));
    qtest ~count:40 "pow_mod even-modulus fallback agrees with naive ladder"
      (QCheck2.Gen.triple (gen_bignum ~bits:300 ()) (gen_bignum ~bits:260 ())
         (gen_bignum ~bits:260 ()))
      (fun (base, e, m) ->
        let base = B.abs base and e = B.abs e in
        (* force the modulus even: the Barrett/plain fallback *)
        let m = B.shift_left (B.abs m) 1 in
        QCheck2.assume (B.compare m B.two > 0);
        B.equal (naive_pow_mod ~base ~exp:e ~modulus:m)
          (B.pow_mod ~base ~exp:e ~modulus:m));
    qtest ~count:60 "pow_multi_mod = folded product of pow_mods"
      (QCheck2.Gen.pair (gen_terms ~bits:300 ()) gen_modulus)
      (fun (pairs, m) ->
        B.equal
          (B.pow_multi_mod pairs ~modulus:m)
          (List.fold_left
             (fun acc (b, e) ->
               B.mul_mod acc (naive_pow_mod ~base:b ~exp:e ~modulus:m) m)
             B.one pairs))
  ]

(* The fixed-base comb kernel against [pow_mod], at the moduli it serves:
   a Schnorr-group prime, an RSA modulus, a wide odd modulus, and an RSA
   prime.  The first two and the last reach the straight-line REDC at
   k = 5, 7 and 4: in-place squarings, and table rows at [boff > 0]. *)
let fixed_base_moduli =
  let rng = Prng.create ~seed:0xF1BA5E in
  let p128 = Primes.random_prime rng ~bits:128 in
  let n192 =
    B.mul (Primes.random_prime rng ~bits:96) (Primes.random_prime rng ~bits:96)
  in
  let odd512 =
    B.add (B.shift_left B.one 511) (B.succ (B.shift_left (Prng.bignum_below rng (B.shift_left B.one 509)) 1))
  in
  let p96 = Primes.random_prime rng ~bits:96 in
  [ ("128-bit p", p128); ("192-bit N", n192); ("512-bit odd", odd512); ("96-bit p", p96) ]

(* Widths that are not multiples of 4 exercise a partial top row. *)
let fixed_base_widths = [ 1; 3; 6; 127; 128; 129; 193; 450; 513 ]

let widest bits = B.pred (B.shift_left B.one bits)

let fixed_base_tests =
  let open QCheck2.Gen in
  let term =
    let* bits = oneofl fixed_base_widths in
    let* base = gen_bignum ~bits:600 () in
    let* which = int_bound 4 in
    let* e = gen_bignum ~bits () in
    let e =
      match which with
      | 0 -> B.zero
      | 1 -> B.one
      | 2 -> widest bits
      | 3 -> B.abs e
      | _ -> B.add (B.shift_left B.one (bits - 1)) (B.erem e (B.shift_left B.one (bits - 1)))
    in
    return (bits, base, e)
  in
  (* one to three tables over one modulus, of any widths *)
  let case =
    let* mi = int_bound (List.length fixed_base_moduli - 1) in
    let* terms = list_size (int_range 1 3) term in
    return (snd (List.nth fixed_base_moduli mi), terms)
  in
  let raises_invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  [ qtest ~count:60 "fixed-base exp = pow_mod (any base, exponents up to the width)"
      case (fun (m, terms) ->
        B.equal
          (B.Fixed_base.exp
             (List.map (fun (bits, base, e) -> (B.Fixed_base.build ~base ~modulus:m ~bits, e)) terms))
          (List.fold_left
             (fun acc (_, base, e) -> B.mul_mod acc (B.pow_mod ~base ~exp:e ~modulus:m) m)
             B.one terms));
    Alcotest.test_case "fixed-base edge cases" `Quick (fun () ->
        List.iter
          (fun (name, m) ->
            let bits = B.numbits m + 3 in
            let check_pow label base e =
              check_b (name ^ ": " ^ label)
                (B.pow_mod ~base ~exp:e ~modulus:m)
                (B.Fixed_base.exp [ (B.Fixed_base.build ~base ~modulus:m ~bits, e) ])
            in
            let x = B.of_string "1234567890123456789" in
            check_pow "e = 0" x B.zero;
            check_pow "e = 1" x B.one;
            check_pow "widest e" x (widest bits);
            check_pow "base = m" m (B.of_int 5);
            check_pow "base = m, e = 0" m B.zero;
            check_pow "base > m" (B.add (B.mul m (B.of_int 3)) x) (widest bits);
            check_pow "negative base" (B.neg x) (B.of_int 3);
            let tbl = B.Fixed_base.build ~base:x ~modulus:m ~bits in
            Alcotest.(check bool) (name ^ ": over-wide exponent") true
              (raises_invalid (fun () -> B.Fixed_base.exp [ (tbl, B.shift_left B.one bits) ]));
            Alcotest.(check bool) (name ^ ": over-wide second exponent") true
              (raises_invalid (fun () ->
                   B.Fixed_base.exp [ (tbl, B.one); (tbl, B.shift_left B.one bits) ]));
            Alcotest.(check bool) (name ^ ": negative exponent") true
              (raises_invalid (fun () -> B.Fixed_base.exp [ (tbl, B.neg B.one) ])))
          fixed_base_moduli;
        let tbl m = B.Fixed_base.build ~base:B.two ~modulus:m ~bits:8 in
        Alcotest.(check bool) "even modulus" true
          (raises_invalid (fun () -> tbl (B.of_int 1024)));
        Alcotest.(check bool) "zero modulus" true
          (raises_invalid (fun () -> tbl B.zero));
        Alcotest.(check bool) "mixed moduli" true
          (raises_invalid (fun () ->
               B.Fixed_base.exp [ (tbl (B.of_int 1019), B.one); (tbl (B.of_int 1021), B.one) ]));
        check_b "modulus 1" B.zero (B.Fixed_base.exp [ (tbl B.one, B.of_int 7) ]);
        check_b "empty product" B.one (B.Fixed_base.exp []))
  ]

(* ------------------------------------------------------------------ *)
(* Reference models                                                    *)
(* ------------------------------------------------------------------ *)

(* Limb arrays to and from Bignum, [bits] per limb, little-endian. *)
let limbs_of ~bits (v : B.t) : int array =
  let base = B.shift_left B.one bits in
  let rec go v acc =
    if B.is_zero v then Array.of_list (List.rev acc)
    else
      go (B.shift_right v bits)
        (Option.get (B.to_int_opt (B.erem v base)) :: acc)
  in
  go (B.abs v) []

let of_limbs ~bits (a : int array) : B.t =
  Array.fold_right (fun x acc -> B.add (B.shift_left acc bits) (B.of_int x)) a B.zero

let mag = limbs_of ~bits:31
let of_mag = of_limbs ~bits:31

(* The kernels the current ones replaced, kept as executable
   specifications: the word-interleaved CIOS Montgomery product on
   31-bit limbs with R = 2^(31k), a binary ladder over it, and Euclid
   with one truncated division per quotient. *)
module Ref = struct
  let base_bits = 31
  let base = 1 lsl base_bits
  let mask = base - 1

  type ctx = { m : int array; k : int; m0' : int; r2 : int array; one : int array }

  let pad k a =
    let r = Array.make k 0 in
    Array.blit a 0 r 0 (Array.length a);
    r

  let create (m : B.t) : ctx =
    let mm = mag m in
    let k = Array.length mm in
    let m0 = mm.(0) in
    let inv = ref m0 in
    for _ = 1 to 4 do
      inv := (!inv * (2 - ((m0 * !inv) land mask))) land mask
    done;
    let r_pow e = pad k (mag (B.erem (B.shift_left B.one e) m)) in
    { m = mm; k; m0' = (base - !inv) land mask;
      r2 = r_pow (2 * base_bits * k); one = r_pow (base_bits * k) }

  let mul (ctx : ctx) (a : int array) (b : int array) : int array =
    let k = ctx.k and m = ctx.m and m0' = ctx.m0' in
    let t = Array.make (k + 2) 0 in
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let carry = ref 0 in
      for j = 0 to k - 1 do
        let x = t.(j) + (ai * b.(j)) + !carry in
        t.(j) <- x land mask;
        carry := x lsr base_bits
      done;
      let x = t.(k) + !carry in
      t.(k) <- x land mask;
      t.(k + 1) <- x lsr base_bits;
      let u = (t.(0) * m0') land mask in
      let carry = ref ((t.(0) + (u * m.(0))) lsr base_bits) in
      for j = 1 to k - 1 do
        let x = t.(j) + (u * m.(j)) + !carry in
        t.(j - 1) <- x land mask;
        carry := x lsr base_bits
      done;
      let x = t.(k) + !carry in
      t.(k - 1) <- x land mask;
      t.(k) <- t.(k + 1) + (x lsr base_bits)
    done;
    let r = Array.sub t 0 k in
    let ge =
      t.(k) > 0
      ||
      let rec cmp i =
        if i < 0 then true
        else if r.(i) <> m.(i) then r.(i) > m.(i)
        else cmp (i - 1)
      in
      cmp (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = r.(j) - m.(j) - !borrow in
        r.(j) <- d land mask;
        borrow := if d < 0 then 1 else 0
      done
    end;
    r

  let to_mont ctx x = mul ctx (pad ctx.k (mag (B.erem x (of_mag ctx.m)))) ctx.r2

  let from_mont ctx a =
    let one = Array.make ctx.k 0 in
    one.(0) <- 1;
    of_mag (mul ctx a one)

  (* base^exp mod m by the binary ladder over CIOS products *)
  let pow ctx base exp =
    let acc = ref ctx.one and b = ref (to_mont ctx base) in
    for i = 0 to B.numbits exp - 1 do
      if B.testbit exp i then acc := mul ctx !acc !b;
      b := mul ctx !b !b
    done;
    from_mont ctx !acc

  let rec gcd a b =
    let a = B.abs a and b = B.abs b in
    if B.is_zero b then a else gcd b (B.rem a b)

  let egcd a b =
    let rec go r0 r1 u0 u1 v0 v1 =
      if B.is_zero r1 then (r0, u0, v0)
      else begin
        let q, r = B.divmod r0 r1 in
        go r1 r u1 (B.sub u0 (B.mul q u1)) v1 (B.sub v0 (B.mul q v1))
      end
    in
    go a b B.one B.zero B.zero B.one

  let inv_mod a m =
    let g, u, _ = egcd (B.erem a m) m in
    if B.equal g B.one then Some (B.erem u m) else None

  (* Binary reciprocity on bignums, one allocating [erem] and shift per
     step: strip the twos of a ((2/n) = -1 iff n = 3, 5 mod 8), flip on
     a = n = 3 mod 4, recurse on (n mod a, a). *)
  let jacobi a n =
    let low k v = B.to_int_opt (B.erem v (B.of_int k)) |> Option.get in
    let rec go a n acc =
      if B.is_zero a then if B.equal n B.one then acc else 0
      else begin
        let rec twos a k = if B.is_even a then twos (B.shift_right a 1) (k + 1) else (a, k) in
        let a, k = twos a 0 in
        let acc = if k land 1 = 1 && (low 8 n = 3 || low 8 n = 5) then -acc else acc in
        let acc = if low 4 a = 3 && low 4 n = 3 then -acc else acc in
        go (B.erem n a) a acc
      end
    in
    go (B.erem a n) n 1
end

(* Odd moduli of exactly [bits] bits: a random one, the all-ones one,
   and 2^(bits-1) + 1 (sparse limbs).  85/112, 113/140 and 169/196 are
   both ends of the straight-line kernels' k = 4, 5 and 7. *)
let kernel_bits =
  [ 62; 64; 85; 112; 113; 128; 140; 169; 192; 196; 256; 868; 869; 896; 1024 ]

let kernel_moduli =
  let rng = Prng.create ~seed:0x28B17 in
  List.concat_map
    (fun bits ->
      let top = B.shift_left B.one (bits - 1) in
      let r = B.add top (Prng.bignum_below rng top) in
      let r = if B.is_even r then B.succ r else r in
      [ (bits, r); (bits, B.pred (B.shift_left top 1)); (bits, B.succ top) ])
    kernel_bits

(* Operands that reach the extremes of the column sums: 0, 1, m - 1,
   m - 2, and values whose low limbs are all ones. *)
let edge_operands m =
  let ones = B.pred (B.shift_left B.one (B.numbits m - 1)) in
  [ B.zero; B.one; B.pred m; B.sub m B.two; ones; B.shift_right m 1 ]

let ctx_of m = Option.get (Montgomery.create (mag m))

(* Montgomery products, round-tripped: the plain-domain value of
   REDC(x~, y~) is x * y mod m for either kernel. *)
let kernel_product ctx x y =
  of_mag
    (Montgomery.from_mont ctx
       (Montgomery.mul ctx (Montgomery.to_mont ctx (mag x)) (Montgomery.to_mont ctx (mag y))))

let ref_product rc x y = Ref.from_mont rc (Ref.mul rc (Ref.to_mont rc x) (Ref.to_mont rc y))

let pow_ref m base e = Ref.pow (Ref.create m) base e

let kernel_tests =
  let open QCheck2.Gen in
  let modulus = oneofl kernel_moduli in
  let below m = map (fun s -> B.erem (B.abs s) m) (gen_bignum ~bits:1100 ()) in
  [ Alcotest.test_case "REDC = CIOS reference at every width (edge operands)" `Quick
      (fun () ->
        List.iter
          (fun (bits, m) ->
            let ctx = ctx_of m and rc = Ref.create m in
            let ops = edge_operands m in
            List.iter
              (fun x ->
                List.iter
                  (fun y ->
                    check_b (Printf.sprintf "%d-bit product" bits) (ref_product rc x y)
                      (kernel_product ctx x y))
                  ops)
              ops)
          kernel_moduli);
    Alcotest.test_case "REDC on all-ones residues: the column fold" `Quick (fun () ->
        (* m = 2^(28k) - 1 and residues m - 1, m - 2: every limb is at or
           next to 2^28 - 1, so the low column k - 1 sums k products of
           almost 2^56.  Unfolded, it passes 2^62 from k = 65 and wraps
           the native int (2^63) from k = 129.  k = 4, 5 and 7 take the
           straight-line kernels, with every column at its largest. *)
        List.iter
          (fun k ->
            let r = B.shift_left B.one (28 * k) in
            let m = B.pred r in
            let ctx = ctx_of m in
            let rinv = Option.get (Ref.inv_mod r m) in
            List.iter
              (fun (x, y) ->
                let got =
                  Montgomery.mul ctx (limbs_of ~bits:28 x |> Ref.pad k)
                    (limbs_of ~bits:28 y |> Ref.pad k)
                in
                check_b (Printf.sprintf "k = %d" k)
                  (B.erem (B.mul (B.mul x y) rinv) m)
                  (of_limbs ~bits:28 got))
              [ (B.pred m, B.pred m); (B.sub m B.two, B.pred m); (B.sub m B.two, B.sub m B.two) ])
          [ 2; 4; 5; 7; 30; 31; 32; 33; 37; 64; 65; 129; 160 ]);
    qtest ~count:80 "REDC = CIOS reference (random operands)"
      (let* _, m = modulus in
       let* x = below m and* y = below m in
       return (m, x, y))
      (fun (m, x, y) -> B.equal (ref_product (Ref.create m) x y) (kernel_product (ctx_of m) x y));
    qtest ~count:40 "pow = reference ladder"
      (let* _, m = modulus in
       let* x = gen_bignum ~bits:1100 () and* e = gen_bignum ~bits:1100 () in
       return (m, x, B.abs e))
      (fun (m, x, e) ->
        B.equal (pow_ref m x e)
          (of_mag (Montgomery.pow_multi (ctx_of m) [ (mag (B.erem x m), mag e) ])));
    qtest ~count:40 "pow_multi = product of reference ladders"
      (let* _, m = modulus in
       let* pairs = gen_terms ~bits:1100 () in
       return (m, pairs))
      (fun (m, pairs) ->
        (* bases as unreduced magnitudes: the kernel reduces them *)
        let pairs = List.map (fun (b, e) -> (B.abs b, e)) pairs in
        B.equal
          (List.fold_left (fun acc (b, e) -> B.mul_mod acc (pow_ref m b e) m) B.one pairs)
          (of_mag (Montgomery.pow_multi (ctx_of m) (List.map (fun (b, e) -> (mag b, mag e)) pairs))));
    qtest ~count:30 "Fixed_base exp of one to three tables = reference ladders"
      (let* _, m = modulus in
       let* bases = list_size (int_range 1 3) (below m) in
       let* bits = int_range 1 300 in
       let* exps = list_repeat (List.length bases) (gen_bignum ~bits ()) in
       return (m, bits, List.combine bases (List.map B.abs exps)))
      (fun (m, bits, pairs) ->
        B.equal
          (List.fold_left (fun acc (b, e) -> B.mul_mod acc (pow_ref m b e) m) B.one pairs)
          (B.Fixed_base.exp
             (List.map (fun (b, e) -> (B.Fixed_base.build ~base:b ~modulus:m ~bits, e)) pairs)))
  ]

(* gcd, egcd and inv_mod against Euclid, result for result. *)
let same_gcd x y =
  let g, u, v = B.egcd x y and g', u', v' = Ref.egcd x y in
  B.equal (B.gcd x y) (Ref.gcd x y) && B.equal g g' && B.equal u u' && B.equal v v'

let check_same_gcd label x y =
  Alcotest.(check bool)
    (Printf.sprintf "%s: (%s, %s)" label (B.to_string x) (B.to_string y))
    true (same_gcd x y)

let signs x y = [ (x, y); (B.neg x, y); (x, B.neg y); (B.neg x, B.neg y); (y, x) ]

let fibonacci n =
  let rec go a b i acc = if i = n then List.rev acc else go b (B.add a b) (i + 1) ((a, b) :: acc) in
  go B.zero B.one 0 []

let lehmer_tests =
  let open QCheck2.Gen in
  [ Alcotest.test_case "Lehmer = Euclid: Fibonacci pairs" `Quick (fun () ->
        (* every quotient is 1: the longest sequence for the size *)
        List.iteri
          (fun i (a, b) ->
            if i mod 7 = 0 || i > 1480 then
              List.iter (fun (x, y) -> check_same_gcd "fib" x y) (signs a b))
          (fibonacci 1500));
    Alcotest.test_case "Lehmer = Euclid: powers of two, u >> v, shared factors" `Quick
      (fun () ->
        let p2 i = B.shift_left B.one i in
        List.iter
          (fun i -> List.iter (fun j -> check_same_gcd "2^i, 2^j" (p2 i) (p2 j)) [ 0; 1; 30; 31; 61; 62; 63; 200 ])
          [ 0; 1; 29; 30; 31; 60; 61; 62; 124; 300; 1023 ];
        let rng = Prng.create ~seed:0x1E4 in
        for _ = 1 to 30 do
          let big = Prng.bignum_bits rng 1024 and small = Prng.bignum_bits rng (1 + Prng.int rng 90) in
          List.iter (fun (x, y) -> check_same_gcd "u >> v" x y) (signs big small);
          let g = Prng.bignum_bits rng (1 + Prng.int rng 300) in
          let x = B.mul g (Prng.bignum_bits rng 400) and y = B.mul g (Prng.bignum_bits rng 380) in
          List.iter (fun (x, y) -> check_same_gcd "shared factor" x y) (signs x y)
        done);
    Alcotest.test_case "Lehmer = Euclid: zero, equal and negative operands" `Quick (fun () ->
        let v = B.of_string "-123456789012345678901234567890123" in
        List.iter
          (fun (x, y) -> check_same_gcd "edge" x y)
          ([ (B.zero, B.zero); (B.zero, B.one); (B.one, B.zero); (B.one, B.one) ]
           @ signs B.zero v @ signs v v @ signs v B.one @ signs (B.of_int (-6)) (B.of_int 4)));
    Alcotest.test_case "inv_mod = reference: modulus 1, non-invertible, negative" `Quick
      (fun () ->
        let same a m =
          Alcotest.(check (option b))
            (Printf.sprintf "inv_mod %s %s" (B.to_string a) (B.to_string m))
            (Ref.inv_mod a m) (B.inv_mod a m)
        in
        let n = B.mul (B.of_string "1000000007") (B.of_string "998244353") in
        List.iter
          (fun (a, m) -> same a m)
          [ (B.of_int 5, B.one); (B.zero, B.one); (B.of_int (-5), B.one);
            (B.of_string "1000000007", n); (B.mul (B.of_int 3) (B.of_string "998244353"), n);
            (B.of_int 6, B.of_int 12); (B.zero, n); (B.of_int 7, B.neg n); (B.of_int (-7), n);
            (B.pred n, n); (B.add n B.two, n) ];
        Alcotest.(check bool) "non-invertible" true (B.inv_mod (B.of_int 6) (B.of_int 12) = None);
        Alcotest.(check (option b)) "mod 1" (Some B.zero) (B.inv_mod (B.of_int 5) B.one));
    qtest ~count:300 "Lehmer = Euclid (random signed operands)"
      (pair (gen_bignum ~bits:700 ()) (gen_bignum ~bits:700 ()))
      (fun (x, y) -> same_gcd x y);
    qtest ~count:200 "inv_mod = reference (random)"
      (pair (gen_bignum ~bits:400 ()) (gen_bignum ~bits:300 ()))
      (fun (a, m) ->
        QCheck2.assume (not (B.is_zero m));
        B.equal (Option.value ~default:B.zero (Ref.inv_mod a m))
          (Option.value ~default:B.zero (B.inv_mod a m))
        && Option.is_some (Ref.inv_mod a m) = Option.is_some (B.inv_mod a m))
  ]

(* Euler's criterion: for an odd prime p, (a/p) = a^((p-1)/2) mod p,
   read as 1, p - 1 (for -1) or 0. *)
let euler a p =
  let r = naive_pow_mod ~base:(B.erem a p) ~exp:(B.shift_right p 1) ~modulus:p in
  if B.is_zero r then 0 else if B.equal r B.one then 1 else -1

(* Primes of 1 to 5 31-bit limbs, the smallest odd ones included. *)
let jacobi_primes =
  let rng = Prng.create ~seed:0x1AC0B1 in
  List.map B.of_int [ 3; 5; 7; 11; 13 ]
  @ List.map (fun bits -> Primes.random_prime rng ~bits)
      [ 5; 20; 31; 32; 61; 62; 63; 64; 93; 94; 96; 124; 128; 155 ]

let jacobi_edges p =
  let big = B.shift_left B.one (B.numbits p + 40) in
  [ B.zero; p; B.mul p (B.of_int 6); B.neg p; B.one; B.two; B.of_int 4;
    B.of_int 8; B.pred p; B.sub p B.two; B.succ p; B.neg B.one; B.neg B.two;
    B.shift_left B.one (B.numbits p); big; B.add big B.two; B.mul p big ]

let jacobi_tests =
  let open QCheck2.Gen in
  [ Alcotest.test_case "jacobi = Euler's criterion (edge operands)" `Quick
      (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun a ->
                Alcotest.(check int)
                  (Printf.sprintf "(%s/%s)" (B.to_string a) (B.to_string p))
                  (euler a p) (B.jacobi a p))
              (jacobi_edges p))
          jacobi_primes;
        List.iter
          (fun a -> Alcotest.(check int) "(a/1)" 1 (B.jacobi a B.one))
          [ B.zero; B.one; B.two; B.of_int 1000; B.neg (B.of_int 7) ]);
    qtest ~count:400 "jacobi = Euler's criterion (random a, primes of 1-5 limbs)"
      (pair (int_range 0 (List.length jacobi_primes - 1)) (gen_bignum ~bits:320 ()))
      (fun (i, a) ->
        let p = List.nth jacobi_primes i in
        B.jacobi a p = euler a p);
    qtest ~count:300 "jacobi = reference (random odd moduli)"
      (pair (gen_bignum ~bits:500 ()) (gen_bignum ~bits:400 ()))
      (fun (a, n) ->
        let n = B.abs n in
        let n = if B.is_even n then B.succ n else n in
        B.jacobi a n = Ref.jacobi a n);
    Alcotest.test_case "jacobi rejects an even or non-positive modulus" `Quick
      (fun () ->
        List.iter
          (fun n ->
            Alcotest.check_raises (B.to_string n)
              (Invalid_argument "Bignum.jacobi: modulus must be odd and positive")
              (fun () -> ignore (B.jacobi B.one n)))
          [ B.zero; B.two; B.neg (B.of_int 3) ])
  ]

let suite =
  ( "num",
    unit_tests @ prop_tests @ fastpath_tests @ fixed_base_tests @ kernel_tests
    @ lehmer_tests @ jacobi_tests )
