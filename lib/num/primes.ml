(* Primality testing and prime generation.

   Miller-Rabin with deterministic small-prime trial division in front.
   Safe-prime generation (p = 2q + 1 with q prime) backs the Schnorr-group
   parameters and the RSA threshold-signature dealer; the paper's trusted
   dealer generates all of these once at setup time. *)

let small_primes =
  (* Primes below 1000, used for fast trial division. *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

(* The small primes cut into runs, in order, each with its product below
   2^31: a candidate is reduced once per run in native ints
   ({!Bignum.rem_int}), and each prime of the run then divides that
   residue. *)
let prime_runs =
  let runs = ref [] and run = ref [] and prod = ref 1 in
  Array.iter
    (fun p ->
      if !prod * p >= 1 lsl 31 then begin
        runs := (!prod, Array.of_list (List.rev !run)) :: !runs;
        run := [];
        prod := 1
      end;
      run := p :: !run;
      prod := !prod * p)
    small_primes;
  Array.of_list (List.rev ((!prod, Array.of_list (List.rev !run)) :: !runs))

(* Some prime below 1000 divides [n] and is not [n] itself. *)
let divisible_by_small_prime n =
  let itself = match Bignum.to_int_opt n with Some m -> m | None -> 0 in
  Array.exists
    (fun (prod, ps) ->
      let r = Bignum.rem_int n prod in
      Array.exists (fun p -> r mod p = 0 && p <> itself) ps)
    prime_runs

(* One Miller-Rabin round with the given base. *)
let miller_rabin_round n ~base:a =
  let n1 = Bignum.pred n in
  (* n - 1 = d * 2^s with d odd *)
  let rec split d s = if Bignum.is_even d then split (Bignum.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let x = Bignum.pow_mod ~base:a ~exp:d ~modulus:n in
  if Bignum.equal x Bignum.one || Bignum.equal x n1 then true
  else begin
    let rec go x i =
      if i >= s - 1 then false
      else begin
        let x = Bignum.mul_mod x x n in
        if Bignum.equal x n1 then true
        else if Bignum.equal x Bignum.one then false
        else go x (i + 1)
      end
    in
    go x 0
  end

let is_probable_prime ?(rounds = 24) rng n =
  if Bignum.sign n <= 0 then false
  else
    match Bignum.to_int_opt n with
    | Some m when m < 2 -> false
    | Some m when m < 1_000_000 ->
      let rec go d = d * d > m || (m mod d <> 0 && go (d + 1)) in
      go 2
    | _ ->
      if Bignum.is_even n then false
      else if divisible_by_small_prime n then false
      else begin
        let n3 = Bignum.sub n (Bignum.of_int 3) in
        let rec loop i =
          i >= rounds
          ||
          let a = Bignum.add Bignum.two (Prng.bignum_below rng n3) in
          miller_rabin_round n ~base:a && loop (i + 1)
        in
        loop 0
      end

(* A search gives up after this many candidates.  The most any seed in
   the repository draws is 8,524 (a 96-bit safe prime; 2,430 at 128
   bits), so a search that spends the budget has a broken
   exponentiation under it, such as a wrong Montgomery product that
   fails every Miller-Rabin round: it raises within seconds instead of
   spinning forever. *)
let max_candidates = 1_000_000

let exhausted name bits =
  failwith
    (Printf.sprintf "Primes.%s: no %d-bit prime in %d candidates" name bits
       max_candidates)

let random_prime rng ~bits =
  if bits < 3 then invalid_arg "Primes.random_prime: need at least 3 bits";
  let rec draw i =
    if i = max_candidates then exhausted "random_prime" bits;
    let c = Prng.bignum_bits rng (bits - 1) in
    (* Force top and bottom bit. *)
    let c = Bignum.add (Bignum.shift_left Bignum.one (bits - 1)) c in
    let c = if Bignum.is_even c then Bignum.succ c else c in
    if Bignum.numbits c = bits && is_probable_prime rng c then c else draw (i + 1)
  in
  draw 0

let random_safe_prime rng ~bits =
  if bits < 5 then invalid_arg "Primes.random_safe_prime: need at least 5 bits";
  (* Draw candidate q of bits-1 bits; accept when both q and 2q+1 prime.
     Cheap screens first: q odd, q mod 3 <> 1 would make p divisible by 3. *)
  let rec draw i =
    if i = max_candidates then exhausted "random_safe_prime" bits;
    let q = Bignum.add (Bignum.shift_left Bignum.one (bits - 2)) (Prng.bignum_bits rng (bits - 2)) in
    let q = if Bignum.is_even q then Bignum.succ q else q in
    let p = Bignum.succ (Bignum.shift_left q 1) in
    if
      Bignum.numbits p = bits
      && Bignum.rem_int q 3 <> 1
      && (not (divisible_by_small_prime q))
      && (not (divisible_by_small_prime p))
      && is_probable_prime ~rounds:8 rng q
      && is_probable_prime ~rounds:8 rng p
      && is_probable_prime rng q
      && is_probable_prime rng p
    then (p, q)
    else draw (i + 1)
  in
  draw 0
