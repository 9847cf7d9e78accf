(* Schnorr group tests: group laws, membership validation, hashing. *)

module B = Bignum
module G = Schnorr_group

let ps = G.default ~bits:96 ()

let qtest ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* An element's integer, read through its encoding. *)
let big ps a = B.of_bytes_be (G.elt_to_bytes ps a)

(* The reference membership test, x^q = 1 on 0 < x < p: what the
   decoder's Jacobi symbol must agree with. *)
let member_ref ps x =
  B.sign x > 0 && B.lt x ps.G.p
  && B.equal (B.pow_mod ~base:x ~exp:ps.G.q ~modulus:ps.G.p) B.one

let decodes ps x =
  G.elt_of_bytes ps (B.to_bytes_be ~len:(G.elt_len ps) x) <> None

let gen_elt =
  QCheck2.Gen.(map (fun seed ->
      let rng = Prng.create ~seed in
      G.exp_g ps (G.random_exponent ps rng)) int)

let unit_tests =
  [ Alcotest.test_case "parameters are a safe-prime group" `Quick (fun () ->
        let rng = Prng.create ~seed:1 in
        Alcotest.(check bool) "p prime" true (Primes.is_probable_prime rng ps.G.p);
        Alcotest.(check bool) "q prime" true (Primes.is_probable_prime rng ps.G.q);
        Alcotest.(check bool) "p = 2q+1" true
          (B.equal ps.G.p (B.succ (B.shift_left ps.G.q 1)));
        Alcotest.(check bool) "g in group" true (member_ref ps (big ps ps.G.g));
        Alcotest.(check bool) "g not one" false (G.elt_equal ps.G.g (G.one ps)));
    Alcotest.test_case "generator order" `Quick (fun () ->
        Alcotest.(check bool) "g^q = 1" true
          (G.elt_equal (G.exp ps ps.G.g ps.G.q) (G.one ps)));
    Alcotest.test_case "membership rejects" `Quick (fun () ->
        Alcotest.(check bool) "0" false (decodes ps B.zero);
        Alcotest.(check bool) "p" false (decodes ps ps.G.p);
        (* p - 1 has order 2, not in the subgroup *)
        Alcotest.(check bool) "p-1" false (decodes ps (B.pred ps.G.p)));
    Alcotest.test_case "hash_to_elt lands in group" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s true
              (member_ref ps (big ps (G.hash_to_elt ps ~domain:"t" [ s ]))))
          [ ""; "a"; "coin-42"; String.make 1000 'x' ]);
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let x = G.exp_g ps (B.of_int 12345) in
        match G.elt_of_bytes ps (G.elt_to_bytes ps x) with
        | Some y -> Alcotest.(check bool) "eq" true (G.elt_equal x y)
        | None -> Alcotest.fail "roundtrip failed")
  ]

let prop_tests =
  [ qtest "closure + membership" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
        member_ref ps (big ps (G.mul ps a b)));
    qtest "associativity" (QCheck2.Gen.triple gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        G.elt_equal (G.mul ps (G.mul ps a b) c) (G.mul ps a (G.mul ps b c)));
    qtest "commutativity" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
        G.elt_equal (G.mul ps a b) (G.mul ps b a));
    qtest "exp homomorphism"
      QCheck2.Gen.(triple gen_elt (int_bound 1000) (int_bound 1000))
      (fun (a, e1, e2) ->
        G.elt_equal
          (G.exp ps a (B.of_int (e1 + e2)))
          (G.mul ps (G.exp ps a (B.of_int e1)) (G.exp ps a (B.of_int e2))));
    qtest "exp_g matches exp" QCheck2.Gen.(int_bound 100000) (fun e ->
        G.elt_equal (G.exp_g ps (B.of_int e)) (G.exp ps ps.G.g (B.of_int e)));
    qtest "fixed-base exp matches pow_mod" QCheck2.Gen.(pair gen_elt int)
      (fun (a, seed) ->
        let e = G.random_exponent ps (Prng.create ~seed) in
        G.prepare_base ps a;
        B.equal
          (big ps (G.exp ps a e))
          (B.pow_mod ~base:(big ps a) ~exp:(B.erem e ps.G.q) ~modulus:ps.G.p));
    qtest "multi_exp by (q - c) mod q = multi_exp by inverse"
      QCheck2.Gen.(quad gen_elt gen_elt (int_bound 3) int)
      (fun (a, b, which, seed) ->
        let rng = Prng.create ~seed in
        let x = G.random_exponent ps rng in
        let c =
          match which with
          | 0 -> B.zero
          | 1 -> B.one
          | 2 -> B.pred ps.G.q
          | _ -> G.random_exponent ps rng
        in
        let inv_b =
          Option.get (B.inv_mod (big ps b) ps.G.p)
          |> B.to_bytes_be ~len:(G.elt_len ps)
          |> G.elt_of_bytes ps |> Option.get
        in
        let by_inverse = G.multi_exp ps [ (inv_b, c); (a, x) ] in
        let untabled = G.recommit ps ~g:a ~z:x ~h:b ~c in
        G.prepare_base ps b;
        G.elt_equal untabled by_inverse
        && G.elt_equal (G.recommit ps ~g:a ~z:x ~h:b ~c) by_inverse);
    qtest "multi_exp = folded product"
      QCheck2.Gen.(
        list_size (int_range 0 5) (pair gen_elt (int_bound 1000000)))
      (fun pairs ->
        let pairs = List.map (fun (b, e) -> (b, B.of_int e)) pairs in
        G.elt_equal (G.multi_exp ps pairs)
          (List.fold_left
             (fun acc (b, e) -> G.mul ps acc (G.exp ps b e))
             (G.one ps) pairs))
  ]

(* The reference ladder: square-and-multiply with a full reduction at
   every step. *)
let ladder base e =
  let r = ref B.one in
  for i = B.numbits e - 1 downto 0 do
    r := B.erem (B.mul !r !r) ps.G.p;
    if B.testbit e i then r := B.erem (B.mul !r base) ps.G.p
  done;
  !r

(* [multi_exp] over 0 to 3 bases with a table and 0 to 4 without, in a
   group of its own so that no other test's tables interfere; each call
   is checked against the ladder and its op counts against the rule:
   one [fixed_base_exp] per tabled term, and for the untabled terms
   with a non-zero exponent one [pow_mod] ([modexp], [modexp_window])
   when there is one, one [multi_exp] when there are two or more, and
   nothing when there is none (a zero exponent is no exponentiation). *)
let multi_exp_test =
  let open QCheck2.Gen in
  let exponent =
    let* zero = int_bound 3 and* seed = int in
    (* the full width of q, above it, or zero *)
    let e = G.random_exponent ps (Prng.create ~seed) in
    return
      (match zero with
      | 0 -> B.zero
      | 1 -> B.add e ps.G.q
      | _ -> B.add e (B.shift_left B.one (B.numbits ps.G.q - 1)))
  in
  qtest ~count:60 "multi_exp mixing tabled and untabled bases = ladder, with its op counts"
    (pair (list_size (int_range 0 3) (pair gen_elt exponent))
       (list_size (int_range 0 4) (pair gen_elt exponent)))
    (fun (tabled, untabled) ->
      let own = G.unsafe_params ~p:ps.G.p ~q:ps.G.q ~g:(big ps ps.G.g) in
      List.iter (fun (b, _) -> G.prepare_base own b) tabled;
      QCheck2.assume
        (List.for_all (fun (b, _) -> not (List.mem_assoc b tabled)) untabled);
      let terms = tabled @ untabled in
      let reference =
        List.fold_left
          (fun acc (b, e) ->
            B.mul_mod acc (ladder (big ps b) (B.erem e ps.G.q)) ps.G.p)
          B.one terms
      in
      Obs_crypto.reset ();
      Obs_crypto.enable ();
      let got =
        Fun.protect ~finally:Obs_crypto.disable (fun () -> G.multi_exp own terms)
      in
      let live = List.filter (fun (_, e) -> not (B.is_zero (B.erem e ps.G.q))) untabled in
      let modexp, multi =
        match live with [] -> (0, 0) | [ _ ] -> (1, 0) | _ -> (0, 1)
      in
      let count = Obs_crypto.count in
      B.equal (big ps got) reference
      && count Obs_crypto.Fixed_base_exp = List.length tabled
      && count Obs_crypto.Modexp = modexp
      && count Obs_crypto.Modexp_window = modexp
      && count Obs_crypto.Multi_exp = multi)

(* The decoder accepts exactly the encodings of x^q = 1 members, in the
   default 128-bit group and in the 96-bit one: random byte strings of
   the element width (about half of those below p are members), random
   members, the boundary values, and every wrong-length or zero-padded
   form of a member. *)
let membership_reference_test =
  let groups = [ G.default (); ps ] in
  qtest ~count:100 "elt_of_bytes accepts exactly the x^q = 1 values"
    QCheck2.Gen.int (fun seed ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun gp ->
          let len = G.elt_len gp in
          let accepts s = G.elt_of_bytes gp s <> None in
          let agrees x =
            accepts (B.to_bytes_be ~len x) = member_ref gp x
          in
          let raw = Prng.bytes rng len in
          let m = G.exp_g gp (G.random_exponent gp rng) in
          let mb = G.elt_to_bytes gp m in
          let p = gp.G.p in
          accepts raw = member_ref gp (B.of_bytes_be raw)
          && accepts mb
          && List.for_all agrees
               [ B.zero; B.one; B.pred p; p; B.succ p; big gp m;
                 B.sub p (big gp m) ]
          && List.for_all
               (fun s -> not (accepts s))
               [ ""; "\000" ^ mb; mb ^ "\000"; String.sub mb 1 (len - 1) ])
        groups)

let suite =
  ( "group",
    unit_tests @ prop_tests @ [ multi_exp_test; membership_reference_test ] )
