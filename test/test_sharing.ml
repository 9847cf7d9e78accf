(* Tests for party sets, polynomials, monotone formulas, adversary
   structures (including the paper's Examples 1 and 2) and the
   Benaloh-Leichter LSSS. *)

module B = Bignum
module F = Monotone_formula
module AS = Adversary_structure

let q17 = B.of_string "170141183460469231731687303715884105727" (* 2^127-1 *)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let pset_tests =
  [ Alcotest.test_case "pset basics" `Quick (fun () ->
        let s = Pset.of_list [ 0; 3; 5 ] in
        Alcotest.(check int) "card" 3 (Pset.card s);
        Alcotest.(check bool) "mem 3" true (Pset.mem 3 s);
        Alcotest.(check bool) "mem 1" false (Pset.mem 1 s);
        Alcotest.(check (list int)) "to_list" [ 0; 3; 5 ] (Pset.to_list s);
        Alcotest.(check int) "complement card" 3 (Pset.card (Pset.complement 6 s)));
    qtest "pset union/inter/diff laws"
      QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
      (fun (a, b) ->
        Pset.card (Pset.union a b) + Pset.card (Pset.inter a b)
        = Pset.card a + Pset.card b
        && Pset.subset (Pset.diff a b) a
        && Pset.disjoint (Pset.diff a b) b);
    qtest "pset roundtrip list" QCheck2.Gen.(int_bound 0x3FFFFF) (fun s ->
        Pset.equal s (Pset.of_list (Pset.to_list s)))
  ]

let poly_tests =
  [ Alcotest.test_case "constant poly" `Quick (fun () ->
        let rng = Prng.create ~seed:5 in
        let p = Poly.random rng ~modulus:q17 ~degree:0 ~secret:(B.of_int 42) in
        Alcotest.(check bool) "eval anywhere" true
          (B.equal (B.of_int 42) (Poly.eval_at_int p 17)));
    qtest ~count:50 "shamir interpolation recovers secret"
      QCheck2.Gen.(triple (int_range 0 5) (int_bound 1000000) int)
      (fun (degree, secret, seed) ->
        let rng = Prng.create ~seed in
        let p = Poly.random rng ~modulus:q17 ~degree ~secret:(B.of_int secret) in
        (* Evaluate at degree+1 distinct points and interpolate at 0. *)
        let xs = List.init (degree + 1) (fun i -> (2 * i) + 1) in
        let coeffs = Poly.lagrange_at_zero ~modulus:q17 xs in
        let v =
          List.fold_left
            (fun acc (x, lam) ->
              B.erem (B.add acc (B.mul lam (Poly.eval_at_int p x))) q17)
            B.zero coeffs
        in
        B.equal v (B.of_int secret));
    qtest ~count:50 "lagrange coefficients sum to one"
      QCheck2.Gen.(list_size (int_range 1 8) (int_range 1 100))
      (fun xs ->
        let xs = List.sort_uniq compare xs in
        let coeffs = Poly.lagrange_at_zero ~modulus:q17 xs in
        B.equal B.one
          (List.fold_left (fun acc (_, l) -> B.add_mod acc l q17) B.zero coeffs));
    Alcotest.test_case "lagrange rejects duplicate points" `Quick (fun () ->
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Poly.lagrange_at_zero: duplicate evaluation point")
          (fun () -> ignore (Poly.lagrange_at_zero ~modulus:q17 [ 1; 2; 2 ])));
    Alcotest.test_case "lagrange rejects zero point" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Poly.lagrange_at_zero: zero evaluation point")
          (fun () -> ignore (Poly.lagrange_at_zero ~modulus:q17 [ 0; 1 ])))
  ]

let formula_tests =
  [ Alcotest.test_case "threshold eval" `Quick (fun () ->
        let f = F.simple_threshold ~n:4 ~k:2 in
        Alcotest.(check bool) "2 of 4" true (F.eval f (Pset.of_list [ 1; 3 ]));
        Alcotest.(check bool) "1 of 4" false (F.eval f (Pset.of_list [ 2 ])));
    Alcotest.test_case "and/or" `Quick (fun () ->
        let f = F.and_ [ F.leaf 0; F.or_ [ F.leaf 1; F.leaf 2 ] ] in
        Alcotest.(check bool) "0,2" true (F.eval f (Pset.of_list [ 0; 2 ]));
        Alcotest.(check bool) "1,2" false (F.eval f (Pset.of_list [ 1; 2 ])));
    Alcotest.test_case "weighted threshold" `Quick (fun () ->
        (* weights 3,1,1 need 3: party 0 alone qualifies, 1+2 do not *)
        let f = F.weighted_threshold ~weights:[ 3; 1; 1 ] ~k:3 in
        Alcotest.(check bool) "heavy alone" true (F.eval f (Pset.singleton 0));
        Alcotest.(check bool) "two light" false (F.eval f (Pset.of_list [ 1; 2 ])));
    qtest "eval monotone"
      QCheck2.Gen.(pair (int_bound 0x1FF) (int_bound 0x1FF))
      (fun (s1, s2) ->
        let f =
          F.and_
            [ F.simple_threshold ~n:9 ~k:3;
              Canonical_structures.class_cover
                ~classes:Canonical_structures.example1_classes ~k:2 ]
        in
        (not (F.eval f s1)) || F.eval f (Pset.union s1 s2))
  ]

let structure_tests =
  [ Alcotest.test_case "threshold structure predicates" `Quick (fun () ->
        let s = AS.threshold ~n:7 ~t:2 in
        Alcotest.(check bool) "q3" true (AS.satisfies_q3 s);
        Alcotest.(check bool) "big_quorum 5" true
          (AS.big_quorum s (Pset.of_list [ 0; 1; 2; 3; 4 ]));
        Alcotest.(check bool) "big_quorum 4" false
          (AS.big_quorum s (Pset.of_list [ 0; 1; 2; 3 ]));
        Alcotest.(check bool) "two_cover 5" true
          (AS.two_cover s (Pset.of_list [ 0; 1; 2; 3; 4 ]));
        Alcotest.(check bool) "two_cover 4" false
          (AS.two_cover s (Pset.of_list [ 0; 1; 2; 3 ]));
        Alcotest.(check bool) "honest 3" true
          (AS.contains_honest s (Pset.of_list [ 0; 1; 2 ]));
        Alcotest.(check bool) "honest 2" false
          (AS.contains_honest s (Pset.of_list [ 0; 1 ])));
    Alcotest.test_case "threshold q3 boundary" `Quick (fun () ->
        Alcotest.(check bool) "n=4 t=1" true (AS.satisfies_q3 (AS.threshold ~n:4 ~t:1));
        Alcotest.(check bool) "n=3 t=1" false (AS.satisfies_q3 (AS.threshold ~n:3 ~t:1));
        Alcotest.(check bool) "n=10 t=3" true (AS.satisfies_q3 (AS.threshold ~n:10 ~t:3));
        Alcotest.(check bool) "n=9 t=3" false (AS.satisfies_q3 (AS.threshold ~n:9 ~t:3)));
    Alcotest.test_case "general matches threshold" `Quick (fun () ->
        (* A threshold structure expressed as a general formula must agree
           with the fast-path implementation on every predicate. *)
        let th = AS.threshold ~n:7 ~t:2 in
        let gen =
          AS.of_access_formula ~n:7 (F.simple_threshold ~n:7 ~k:3)
        in
        Pset.iter_subsets 7 (fun s ->
            Alcotest.(check bool) "qualified" (AS.is_qualified th s) (AS.is_qualified gen s);
            Alcotest.(check bool) "big_quorum" (AS.big_quorum th s) (AS.big_quorum gen s);
            Alcotest.(check bool) "two_cover" (AS.two_cover th s) (AS.two_cover gen s);
            Alcotest.(check bool) "honest" (AS.contains_honest th s)
              (AS.contains_honest gen s));
        Alcotest.(check bool) "q3" (AS.satisfies_q3 th) (AS.satisfies_q3 gen);
        Alcotest.(check int) "maximal count"
          (List.length (AS.maximal_adversary_sets th))
          (List.length (AS.maximal_adversary_sets gen)));
    Alcotest.test_case "example1: paper claims" `Quick (fun () ->
        let s = Canonical_structures.example1 () in
        (* Q^3 holds ("One may readily verify that A1 satisfies Q^3"). *)
        Alcotest.(check bool) "q3" true (AS.satisfies_q3 s);
        (* All of class a = {1..4} (0-indexed 0..3) is corruptible. *)
        Alcotest.(check bool) "class a corruptible" true
          (AS.is_corruptible s (Pset.of_list [ 0; 1; 2; 3 ]));
        (* Any two servers are corruptible. *)
        for i = 0 to 8 do
          for j = 0 to 8 do
            if i <> j then
              Alcotest.(check bool) "pair corruptible" true
                (AS.is_corruptible s (Pset.of_list [ i; j ]))
          done
        done;
        (* Whole classes are corruptible. *)
        List.iter
          (fun cls ->
            Alcotest.(check bool) "class corruptible" true
              (AS.is_corruptible s (Pset.of_list cls)))
          Canonical_structures.example1_classes;
        (* Three servers covering two classes are qualified. *)
        Alcotest.(check bool) "3 servers 2 classes" true
          (AS.is_qualified s (Pset.of_list [ 0; 1; 4 ]));
        (* Three servers of class a only are NOT qualified. *)
        Alcotest.(check bool) "3 servers 1 class" false
          (AS.is_qualified s (Pset.of_list [ 0; 1; 2 ])));
    Alcotest.test_case "example1: maximal structure" `Quick (fun () ->
        (* A1* consists of {1,...,4} and all pairs not both of class a. *)
        let s = Canonical_structures.example1 () in
        let maxes = AS.maximal_adversary_sets s in
        let class_a = Pset.of_list [ 0; 1; 2; 3 ] in
        List.iter
          (fun m ->
            let ok =
              Pset.equal m class_a
              || (Pset.card m = 2 && not (Pset.subset m class_a))
            in
            Alcotest.(check bool)
              (Printf.sprintf "maximal set %s" (Pset.to_string m))
              true ok)
          maxes;
        (* count: pairs total C(9,2)=36, pairs inside class a C(4,2)=6,
           plus the class-a set itself: 36 - 6 + 1 = 31. *)
        Alcotest.(check int) "count" 31 (List.length maxes));
    Alcotest.test_case "example2: paper claims" `Quick (fun () ->
        let s = Canonical_structures.example2 () in
        Alcotest.(check bool) "q3" true (AS.satisfies_q3 s);
        (* One full site plus one full OS (7 servers) is corruptible. *)
        for row = 0 to 3 do
          for col = 0 to 3 do
            let bad = Canonical_structures.example2_site_plus_os ~row ~col in
            Alcotest.(check int) "pattern size" 7 (Pset.card bad);
            Alcotest.(check bool) "site+os corruptible" true
              (AS.is_corruptible s bad);
            (* The complement (9 servers, a 3x3 grid) is qualified:
               liveness and safety are maintained. *)
            Alcotest.(check bool) "survivors qualified" true
              (AS.is_qualified s (Pset.complement 16 bad))
          done
        done);
    Alcotest.test_case "example2: beats any threshold" `Quick (fun () ->
        (* n=16 requires t <= 5 for n > 3t: no threshold structure
           tolerates the 7-server site+OS pattern while satisfying Q^3. *)
        let bad = Canonical_structures.example2_site_plus_os ~row:0 ~col:0 in
        Alcotest.(check int) "7 corruptions" 7 (Pset.card bad);
        Alcotest.(check bool) "threshold t=5 is the max with q3" true
          (AS.satisfies_q3 (AS.threshold ~n:16 ~t:5));
        Alcotest.(check bool) "t=7 threshold fails q3" false
          (AS.satisfies_q3 (AS.threshold ~n:16 ~t:7));
        (* and with t=5 the 7-set is not tolerated *)
        Alcotest.(check bool) "7-set not corruptible at t=5" false
          (AS.is_corruptible (AS.threshold ~n:16 ~t:5) bad));
    Alcotest.test_case "example2: four servers may reconstruct" `Quick (fun () ->
        let s = Canonical_structures.example2 () in
        let cell r c = Canonical_structures.example2_party ~row:r ~col:c in
        let four = Pset.of_list [ cell 0 0; cell 0 1; cell 1 0; cell 1 1 ] in
        Alcotest.(check bool) "2x2 block qualified" true (AS.is_qualified s four);
        let row_only = Pset.of_list [ cell 0 0; cell 0 1; cell 0 2; cell 0 3 ] in
        Alcotest.(check bool) "full row unqualified" false
          (AS.is_qualified s row_only));
    Alcotest.test_case "sharing formulas compatible with trust assumption"
      `Quick (fun () ->
        List.iter
          (fun (name, s) ->
            Alcotest.(check bool) name true (AS.check_sharing_compatible s))
          [ ("threshold 4/1", AS.threshold ~n:4 ~t:1);
            ("threshold 16/5", AS.threshold ~n:16 ~t:5);
            ("example1", Canonical_structures.example1 ());
            ("example2", Canonical_structures.example2 ()) ]);
    Alcotest.test_case "the honest part of a big quorum is sharing-qualified"
      `Quick (fun () ->
        (* ABBA releases a coin share only with an abstain main-vote, so
           the coin of an all-abstain round must come from the honest
           members of one big quorum Q.  Q contains the complement of a
           maximal corruptible set C; minus the corrupted set A it still
           contains the complement of C u A, which Q^3 keeps qualified
           for every structure the repository deals keys over. *)
        let honest_parts_qualified s =
          let n = AS.n s and maximal = AS.maximal_adversary_sets s in
          List.for_all
            (fun a ->
              List.for_all
                (fun c ->
                  AS.is_qualified s (Pset.complement n (Pset.union a c)))
                maximal)
            maximal
        in
        List.iter
          (fun (name, s) ->
            Alcotest.(check bool) name true (honest_parts_qualified s))
          [ ("threshold 4/1", AS.threshold ~n:4 ~t:1);
            ("threshold 7/2", AS.threshold ~n:7 ~t:2);
            ("threshold 16/5", AS.threshold ~n:16 ~t:5);
            ("hybrid 6/1+1", AS.hybrid_threshold ~n:6 ~byzantine:1 ~crash:1);
            ("example1", Canonical_structures.example1 ());
            ("example2", Canonical_structures.example2 ()) ];
        (* without Q^3 two corruptible sets can leave too few *)
        Alcotest.(check bool) "threshold 6/2" false
          (honest_parts_qualified (AS.threshold ~n:6 ~t:2)));
    Alcotest.test_case "uniform tolerance" `Quick (fun () ->
        Alcotest.(check int) "threshold t=2" 2
          (AS.max_uniform_tolerance (AS.threshold ~n:7 ~t:2));
        (* Example 1: any 2 servers corruptible, some 3-subsets are not. *)
        Alcotest.(check int) "example1" 2
          (AS.max_uniform_tolerance (Canonical_structures.example1 ()));
        (* Example 2: any pair lies in some row+column, some triples not. *)
        Alcotest.(check int) "example2" 2
          (AS.max_uniform_tolerance (Canonical_structures.example2 ())))
  ]

(* Random small monotone formula generator for LSSS property tests. *)
let gen_formula ~n =
  QCheck2.Gen.(
    let rec go depth =
      if depth = 0 then map (fun i -> F.leaf i) (int_bound (n - 1))
      else
        let* arity = int_range 2 4 in
        let* k = int_range 1 arity in
        let* children = list_size (return arity) (go (depth - 1)) in
        return (F.threshold k children)
    in
    let* d = int_range 1 3 in
    go d)

let lsss_tests =
  [ Alcotest.test_case "shamir via lsss" `Quick (fun () ->
        let rng = Prng.create ~seed:11 in
        let scheme = Lsss.build ~modulus:q17 (F.simple_threshold ~n:5 ~k:3) in
        let secret = B.of_int 123456 in
        let shares = Lsss.share scheme rng ~secret in
        Alcotest.(check int) "one leaf per party" 5 (List.length shares);
        (match Lsss.reconstruct scheme shares (Pset.of_list [ 0; 2; 4 ]) with
        | Some v -> Alcotest.(check bool) "recovers" true (B.equal v secret)
        | None -> Alcotest.fail "qualified set rejected");
        Alcotest.(check bool) "unqualified rejected" true
          (Lsss.reconstruct scheme shares (Pset.of_list [ 0; 2 ]) = None));
    Alcotest.test_case "example1 sharing roundtrip" `Quick (fun () ->
        let rng = Prng.create ~seed:12 in
        let s = Canonical_structures.example1 () in
        let scheme = Lsss.build ~modulus:q17 (AS.access_formula s) in
        let secret = B.of_int 987654321 in
        let shares = Lsss.share scheme rng ~secret in
        (* every qualified set reconstructs, every corruptible set fails *)
        Pset.iter_subsets 9 (fun set ->
            match Lsss.reconstruct scheme shares set with
            | Some v ->
              Alcotest.(check bool) "qualified" true (AS.is_qualified s set);
              Alcotest.(check bool) "value" true (B.equal v secret)
            | None ->
              Alcotest.(check bool) "unqualified" true (AS.is_corruptible s set)));
    Alcotest.test_case "example2 sharing site+os failure pattern" `Quick
      (fun () ->
        let rng = Prng.create ~seed:13 in
        let s = Canonical_structures.example2 () in
        let scheme = Lsss.build ~modulus:q17 (AS.access_formula s) in
        let secret = B.of_int 31337 in
        let shares = Lsss.share scheme rng ~secret in
        let bad = Canonical_structures.example2_site_plus_os ~row:1 ~col:2 in
        let survivors = Pset.complement 16 bad in
        (match Lsss.reconstruct scheme shares survivors with
        | Some v -> Alcotest.(check bool) "survivors recover" true (B.equal v secret)
        | None -> Alcotest.fail "survivors must be qualified");
        Alcotest.(check bool) "corrupted coalition learns nothing" true
          (Lsss.reconstruct scheme shares bad = None));
    qtest ~count:40 "lsss roundtrip on random formulas"
      QCheck2.Gen.(triple (gen_formula ~n:6) (int_bound 0x3F) int)
      (fun (f, set, seed) ->
        let rng = Prng.create ~seed in
        let scheme = Lsss.build ~modulus:q17 f in
        let secret = Prng.bignum_below rng q17 in
        let shares = Lsss.share scheme rng ~secret in
        match Lsss.reconstruct scheme shares set with
        | Some v -> F.eval f set && B.equal v secret
        | None -> not (F.eval f set));
    qtest ~count:40 "recombination is linear"
      QCheck2.Gen.(pair (gen_formula ~n:5) int)
      (fun (f, seed) ->
        (* Reconstructing the sum of two sharings with the same
           coefficients gives the sum of secrets. *)
        let rng = Prng.create ~seed in
        let scheme = Lsss.build ~modulus:q17 f in
        let s1 = Prng.bignum_below rng q17 and s2 = Prng.bignum_below rng q17 in
        let sh1 = Lsss.share scheme rng ~secret:s1 in
        let sh2 = Lsss.share scheme rng ~secret:s2 in
        let full = Pset.full 5 in
        match Lsss.recombination scheme full with
        | None -> F.eval f full = false
        | Some coeffs ->
          let value shares leaf =
            (List.find (fun (sh : Lsss.subshare) -> sh.leaf = leaf) shares).value
          in
          let combined =
            List.fold_left
              (fun acc (leaf, c) ->
                B.erem
                  (B.add acc
                     (B.mul c (B.add_mod (value sh1 leaf) (value sh2 leaf) q17)))
                  q17)
              B.zero coeffs
          in
          B.equal combined (B.add_mod s1 s2 q17))
  ]

let suite =
  ("sharing", pset_tests @ poly_tests @ formula_tests @ structure_tests @ lsss_tests)
