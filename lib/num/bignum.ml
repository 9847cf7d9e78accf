(* Signed arbitrary-precision integers on top of {!Limbs}. *)

type t = { sign : int; mag : int array }
(* Invariant: sign is -1, 0 or 1; sign = 0 iff mag is empty. *)

let make sign mag =
  if Limbs.is_zero mag then { sign = 0; mag = Limbs.zero } else { sign; mag }

let zero = { sign = 0; mag = Limbs.zero }
let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }

let of_int x =
  if x = 0 then zero
  else if x > 0 then { sign = 1; mag = Limbs.of_int x }
  else { sign = -1; mag = Limbs.of_int (-x) }

let to_int_opt v =
  match Limbs.to_int_opt v.mag with
  | Some m -> Some (v.sign * m)
  | None -> None

let sign v = v.sign
let is_zero v = v.sign = 0
let neg v = { v with sign = -v.sign }
let abs v = if v.sign < 0 then neg v else v

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else a.sign * Limbs.compare a.mag b.mag

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let geq a b = compare a b >= 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (Limbs.add a.mag b.mag)
  else begin
    let c = Limbs.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Limbs.sub a.mag b.mag)
    else make b.sign (Limbs.sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (Limbs.mul a.mag b.mag)

let mul_int a x =
  if x = 0 then zero
  else begin
    let xs = if x > 0 then 1 else -1 in
    let ax = abs (of_int x) in
    make (a.sign * xs) (Limbs.mul a.mag ax.mag)
  end

let succ a = add a one
let pred a = sub a one

(* Truncated division (like OCaml's / and mod on int): the remainder has
   the sign of the dividend. *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Limbs.divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Euclidean remainder: result always in [0, |b|). *)
let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

(* Horner over the base-2^31 limbs, most significant first: the running
   remainder stays below m < 2^31, so r * 2^31 + limb fits a native int. *)
let rem_int a m =
  if m <= 0 || m > Limbs.mask then invalid_arg "Bignum.rem_int";
  let r = ref 0 in
  for i = Array.length a.mag - 1 downto 0 do
    r := ((!r lsl Limbs.base_bits) lor a.mag.(i)) mod m
  done;
  a.sign * !r

let shift_left a k = make a.sign (Limbs.shift_left a.mag k)
let shift_right a k = make a.sign (Limbs.shift_right a.mag k)
let numbits a = Limbs.numbits a.mag
let testbit a i = Limbs.testbit a.mag i
let is_even a = not (testbit a 0)

(* Lehmer's cosequence engine, the one gcd routine behind [gcd], [egcd]
   and [inv_mod].  On magnitudes x, y it follows Euclid's remainder
   sequence r_0 = x, r_1 = y, r_(i+1) = r_(i-1) mod r_i to its last
   non-zero term r_n = gcd(x, y), and returns (r_n, n odd, |U_n|, |V_n|)
   with r_n = U_n x + V_n y.  The cofactor signs alternate, U_i having
   the sign of (-1)^i and V_i that of (-1)^(i+1), so only magnitudes are
   tracked, and only those asked for.

   Each round runs Euclid on the top 60 bits of x and y in native ints
   and collects the quotients in a 2x2 matrix (A B; C D), with
   (r_(i+j), r_(i+j+1)) = (A r_i + B r_(i+1), C r_i + D r_(i+1)).  A
   quotient is taken only when both ends of the interval that the
   truncated bits leave open agree on it (Knuth 4.5.2, Algorithm L), and
   only while every entry stays below 2^30, so one round covers about
   30 bits and the matrix applies to the full operands with one pass of
   single-limb products.  When the top bits are the whole operands the
   quotient is exact.  A round that can take no quotient (a large one,
   or an ambiguous one) does one long division instead.

   [on_step], when given, sees every Euclid step r_(i+1) = r_(i-1) - q r_i
   as (r_(i-1) mod 8, r_i mod 8, r_(i+1) mod 8): the low bits of the
   full operands follow from the quotients alone, so a step costs a few
   native-int operations and allocates nothing ([jacobi] reads its
   symbol off them). *)
let cosequence ?on_step ~want_u ~want_v (x : int array) (y : int array) =
  let bound = 1 lsl 30 in
  let low3 a = if Limbs.is_zero a then 0 else a.(0) land 7 in
  let x = ref x and y = ref y and odd = ref false in
  let u0 = ref [| 1 |] and u1 = ref Limbs.zero in
  let v0 = ref Limbs.zero and v1 = ref [| 1 |] in
  (* (z0, z1) <- (|A| z0 + |B| z1, |C| z0 + |D| z1): cofactor magnitudes
     grow along the same matrix, every term with the same sign *)
  let apply z0 z1 a b c d =
    let n0 = Limbs.lincomb (Stdlib.abs a) !z0 (Stdlib.abs b) !z1 in
    z1 := Limbs.lincomb (Stdlib.abs c) !z0 (Stdlib.abs d) !z1;
    z0 := n0
  in
  while not (Limbs.is_zero !y) do
    let s = max 0 (max (Limbs.numbits !x) (Limbs.numbits !y) - 60) in
    let xh = ref (Limbs.bits_from !x s) and yh = ref (Limbs.bits_from !y s) in
    let a = ref 1 and b = ref 0 and c = ref 0 and d = ref 1 in
    let steps = ref 0 and go = ref true in
    let xl = ref (low3 !x) and yl = ref (low3 !y) in
    while !go do
      let q =
        if s = 0 then if !yh = 0 then -1 else !xh / !yh
        else if !yh + !c = 0 || !yh + !d = 0 then -1
        else begin
          let q = (!xh + !a) / (!yh + !c) in
          if q = (!xh + !b) / (!yh + !d) then q else -1
        end
      in
      if q < 0 || q >= bound then go := false
      else begin
        let c' = !a - (q * !c) and d' = !b - (q * !d) in
        if Stdlib.abs c' >= bound || Stdlib.abs d' >= bound then go := false
        else begin
          a := !c;
          b := !d;
          c := c';
          d := d';
          let r = !xh - (q * !yh) in
          xh := !yh;
          yh := r;
          (match on_step with
          | None -> ()
          | Some f ->
            let rl = (!xl - (q * !yl)) land 7 in
            f !xl !yl rl;
            xl := !yl;
            yl := rl);
          incr steps
        end
      end
    done;
    if !steps = 0 then begin
      let q, r = Limbs.divmod !x !y in
      Option.iter (fun f -> f !xl !yl (low3 r)) on_step;
      x := !y;
      y := r;
      let step z0 z1 =
        let n1 = Limbs.add !z0 (Limbs.mul q !z1) in
        z0 := !z1;
        z1 := n1
      in
      if want_u then step u0 u1;
      if want_v then step v0 v1;
      odd := not !odd
    end
    else begin
      let nx = Limbs.lincomb !a !x !b !y in
      y := Limbs.lincomb !c !x !d !y;
      x := nx;
      if want_u then apply u0 u1 !a !b !c !d;
      if want_v then apply v0 v1 !a !b !c !d;
      if !steps land 1 = 1 then odd := not !odd
    end
  done;
  (!x, !odd, !u0, !v0)

let gcd a b =
  let g, _, _, _ = cosequence ~want_u:false ~want_v:false a.mag b.mag in
  make 1 g

(* (g, u, v) with u*a + v*b = g, exactly as Euclid with truncated
   division computes them on signed operands: that sequence is the one
   on |a|, |b| with r_i carrying the sign of a for even i and of b for
   odd i, so g and its cofactors take their signs from the parity. *)
let egcd_with ~want_v a b =
  let g, odd, u, v = cosequence ~want_u:true ~want_v a.mag b.mag in
  let sa = if a.sign < 0 then -1 else 1 and sb = if b.sign < 0 then -1 else 1 in
  let s = if odd then sb else sa and pu = if odd then -1 else 1 in
  (make s g, make (s * sa * pu) u, make (-s * sb * pu) v)

(* Extended Euclid: returns (g, u, v) with u*a + v*b = g = gcd(a, b). *)
let egcd a b = egcd_with ~want_v:true a b

(* Jacobi symbol (a/n) for odd positive n, read off Euclid's remainder
   sequence of (n, a mod n) as [cosequence] computes it, so the
   reductions run in Lehmer rounds and no step allocates.  For a prime
   n it decides quadratic residuosity, which is what makes it the cheap
   subgroup-membership test for Schnorr groups (p = 2q + 1): an element
   lies in the order-q subgroup iff its Jacobi symbol mod p is 1.

   Each step replaces (x, y), x > y, by (y, r) with r = x - q y.  One of
   x, y is the odd "denominator" d and the other the numerator m, and
   the symbol is acc * (m/d):
   - d = y: (x/y) = (r/y), and y is now the first of the pair;
   - d = x, y odd: (y/x) = (x/y) = (r/y) up to the reciprocity sign,
     -1 iff x = y = 3 (mod 4); the denominator moves to y;
   - d = x, y even: r = x - q y is odd, and (y/x) = (y/r) up to a sign
     that only y = 2 (mod 4) can make -1: with y = 2y', it is
     (2/x)(2/r) times the reciprocity signs of y' against x and r.  The
     denominator moves to r.
   The sequence ends at (gcd, 0) with the denominator first: the symbol
   is acc when the gcd is 1 and 0 otherwise. *)
let jacobi a n =
  if n.sign <= 0 || is_even n then
    invalid_arg "Bignum.jacobi: modulus must be odd and positive";
  let acc = ref 1 and den_first = ref true in
  let minus_two v = v = 3 || v = 5 (* (2/v) = -1, for v mod 8 *) in
  let step xl yl rl =
    if not !den_first then den_first := true
    else if yl land 1 = 1 then begin
      if xl land 3 = 3 && yl land 3 = 3 then acc := - !acc
    end
    else begin
      if yl land 3 = 2 then begin
        let y'3 = yl land 4 = 4 (* y' = 3 mod 4 *) in
        let eps v = y'3 && v land 3 = 3 in
        if minus_two xl <> minus_two rl then acc := - !acc;
        if eps xl <> eps rl then acc := - !acc
      end;
      den_first := false
    end
  in
  let g, _, _, _ =
    cosequence ~on_step:step ~want_u:false ~want_v:false n.mag (erem a n).mag
  in
  if Limbs.compare g [| 1 |] = 0 then !acc else 0

let add_mod a b m = erem (add a b) m
let mul_mod a b m = erem (mul a b) m

let inv_mod a m =
  let g, u, _ = egcd_with ~want_v:false (erem a m) m in
  if equal g one then Some (erem u m) else None

(* An odd modulus of at least two limbs goes through Montgomery REDC;
   below that the plain ladder's constant factor wins, and the context
   setup would not amortize over the few squarings of a tiny exponent. *)
let montgomery_eligible m nb_exp =
  not (is_even m) && numbits m >= 2 * Limbs.base_bits && nb_exp > 4

let pow_mod ~base:b ~exp:e ~modulus:m =
  if m.sign <= 0 then invalid_arg "Bignum.pow_mod: modulus must be positive";
  if e.sign < 0 then invalid_arg "Bignum.pow_mod: negative exponent";
  if equal m one then zero
  else begin
    let nb = numbits e in
    if nb = 0 then one (* 0^0 = 1 by convention, as in the old ladder *)
    else begin
      let b = erem b m in
      (* [modexp] counts exponentiations done, not the short-circuits. *)
      if is_zero b then zero
      else if montgomery_eligible m nb then begin
        match Montgomery.create_cached m.mag with
        | Some ctx ->
          Obs_crypto.modexp ();
          Obs_crypto.modexp_window ();
          make 1 (Montgomery.pow_multi ctx [ (b.mag, e.mag) ])
        | None -> assert false (* eligible implies odd, non-zero *)
      end
      else begin
        (* even or small moduli, tiny exponents: plain square-and-multiply *)
        Obs_crypto.modexp ();
        let b = ref b and r = ref one in
        for i = 0 to nb - 1 do
          if testbit e i then r := mul_mod !r !b m;
          if i < nb - 1 then b := mul_mod !b !b m
        done;
        !r
      end
    end
  end

let pow_multi_mod pairs ~modulus:m =
  if m.sign <= 0 then
    invalid_arg "Bignum.pow_multi_mod: modulus must be positive";
  List.iter
    (fun (_, e) ->
      if e.sign < 0 then invalid_arg "Bignum.pow_multi_mod: negative exponent")
    pairs;
  if equal m one then zero
  else begin
    (* Zero exponents contribute a factor of one; drop them up front. *)
    let pairs = List.filter (fun (_, e) -> not (is_zero e)) pairs in
    match pairs with
    | [] -> one
    | [ (b, e) ] -> pow_mod ~base:b ~exp:e ~modulus:m
    | _ ->
      let nb =
        List.fold_left (fun acc (_, e) -> max acc (numbits e)) 0 pairs
      in
      if montgomery_eligible m nb then begin
        match Montgomery.create_cached m.mag with
        | Some ctx ->
          Obs_crypto.multi_exp ();
          make 1
            (Montgomery.pow_multi ctx
               (List.map (fun (b, e) -> ((erem b m).mag, e.mag)) pairs))
        | None -> assert false
      end
      else
        List.fold_left
          (fun acc (b, e) ->
            mul_mod acc (pow_mod ~base:b ~exp:e ~modulus:m) m)
          one pairs
  end

(* Fixed-base exponentiation: a Lim-Lee comb per long-lived base, with
   Montgomery-residue entries, so every exponentiation is about bits/8
   squarings plus bits/8 REDC multiplies and no long division. *)
module Fixed_base = struct
  type table = { ctx : Montgomery.ctx; modulus : t; bits : int; comb : Montgomery.comb }

  let build ~base ~modulus:m ~bits =
    if m.sign <= 0 || is_even m then
      invalid_arg "Bignum.Fixed_base.build: modulus must be odd and positive";
    if bits < 0 then invalid_arg "Bignum.Fixed_base.build: negative width";
    match Montgomery.create_cached m.mag with
    | Some ctx ->
      { ctx;
        modulus = m;
        bits;
        comb = Montgomery.comb_build ctx ~base:(erem base m).mag ~bits }
    | None -> assert false (* odd and positive *)

  let check t e =
    if e.sign < 0 then invalid_arg "Bignum.Fixed_base: negative exponent";
    if numbits e > t.bits then
      invalid_arg "Bignum.Fixed_base: exponent wider than the table"

  let exp = function
    | [] -> one
    | (t, _) :: _ as terms ->
      List.iter
        (fun (t', e) ->
          if not (equal t'.modulus t.modulus) then
            invalid_arg "Bignum.Fixed_base.exp: tables over different moduli";
          check t' e)
        terms;
      List.iter (fun _ -> Obs_crypto.fixed_base_exp ()) terms;
      make 1 (Montgomery.comb_exp t.ctx (List.map (fun (t, e) -> (t.comb, e.mag)) terms))
end

let to_string v =
  if v.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag =
      if Limbs.is_zero mag then ()
      else begin
        let q, r = Limbs.divmod_int mag 1_000_000_000 in
        if Limbs.is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go v.mag;
    (if v.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let s, sgn =
    if String.length s > 0 && s.[0] = '-' then
      (String.sub s 1 (String.length s - 1), -1)
    else (s, 1)
  in
  if s = "" then invalid_arg "Bignum.of_string: empty";
  let acc = ref zero and ten = of_int 10 in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: bad digit";
      acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0')))
    s;
  if sgn < 0 then neg !acc else !acc

let to_hex v =
  if v.sign = 0 then "0"
  else begin
    let nb = numbits v in
    let digits = (nb + 3) / 4 in
    let buf = Buffer.create digits in
    if v.sign < 0 then Buffer.add_char buf '-';
    for i = digits - 1 downto 0 do
      let d = ref 0 in
      for j = 3 downto 0 do
        d := (!d lsl 1) lor (if testbit v ((i * 4) + j) then 1 else 0)
      done;
      Buffer.add_char buf "0123456789abcdef".[!d]
    done;
    Buffer.contents buf
  end

let of_hex s =
  let s, sgn =
    if String.length s > 0 && s.[0] = '-' then
      (String.sub s 1 (String.length s - 1), -1)
    else (s, 1)
  in
  if s = "" then invalid_arg "Bignum.of_hex: empty";
  let acc = ref zero and sixteen = of_int 16 in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg "Bignum.of_hex: bad digit"
      in
      acc := add (mul !acc sixteen) (of_int d))
    s;
  if sgn < 0 then neg !acc else !acc

(* Big-endian byte encoding of the magnitude, zero-padded to [len] when
   given.  Raises if the value does not fit.  Bytes are read straight
   out of the 31-bit limbs (at most one limb-boundary straddle each):
   serialization sits on the hash hot path, where a per-bit loop would
   cost more than the hashing itself. *)
let to_bytes_be ?len v =
  if v.sign < 0 then invalid_arg "Bignum.to_bytes_be: negative";
  let needed = (numbits v + 7) / 8 in
  let len = match len with Some l -> l | None -> max 1 needed in
  if needed > len then invalid_arg "Bignum.to_bytes_be: does not fit";
  let b = Bytes.make len '\000' in
  let mag = v.mag in
  let nlimbs = Array.length mag in
  for i = 0 to needed - 1 do
    let lo = 8 * i in
    let li = lo / Limbs.base_bits and off = lo mod Limbs.base_bits in
    let x = Array.unsafe_get mag li lsr off in
    let x =
      if off + 8 > Limbs.base_bits && li + 1 < nlimbs then
        x lor (Array.unsafe_get mag (li + 1) lsl (Limbs.base_bits - off))
      else x
    in
    Bytes.unsafe_set b (len - 1 - i) (Char.unsafe_chr (x land 0xff))
  done;
  Bytes.unsafe_to_string b

let of_bytes_be s =
  let len = String.length s in
  let nlimbs = ((8 * len) + Limbs.base_bits - 1) / Limbs.base_bits in
  if nlimbs = 0 then zero
  else begin
    let mag = Array.make nlimbs 0 in
    let mask = (1 lsl Limbs.base_bits) - 1 in
    for i = 0 to len - 1 do
      let v = Char.code (String.unsafe_get s (len - 1 - i)) in
      let lo = 8 * i in
      let li = lo / Limbs.base_bits and off = lo mod Limbs.base_bits in
      mag.(li) <- mag.(li) lor ((v lsl off) land mask);
      if off + 8 > Limbs.base_bits then
        mag.(li + 1) <- mag.(li + 1) lor (v lsr (Limbs.base_bits - off))
    done;
    make 1 (Limbs.normalize mag)
  end

let pp fmt v = Format.pp_print_string fmt (to_string v)
