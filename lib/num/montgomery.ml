(* Montgomery (REDC) arithmetic over the {!Limbs} representation.

   For an odd k-limb modulus m, residues are kept in Montgomery form
   x~ = x * R mod m with R = 2^(31k).  The word-level CIOS loop (Koc,
   Acar & Kaliski) interleaves multiplication and reduction, so one
   Montgomery multiplication costs 2k^2 + k single-limb multiplies and
   never performs a long division — the division that dominates every
   plain [erem]-based modular multiplication is replaced by shifts that
   fall out of the loop structure for free.

   Limb products fit the native int exactly: with 31-bit limbs the
   worst-case accumulation (base-1)^2 + 2*(base-1) = 2^62 - 1 equals
   OCaml's max_int on 64-bit platforms, the same headroom argument as
   {!Limbs.mul}.

   Montgomery residues are held in raw [int array]s of length exactly
   [k] (zero-padded, not normalized) so the inner loops never bounds-
   check against ragged lengths.  Conversions in and out normalize. *)

let base_bits = Limbs.base_bits
let mask = Limbs.mask

type ctx = {
  m : int array;  (* the odd modulus, normalized, k limbs *)
  k : int;
  m0' : int;  (* -m^{-1} mod 2^31 *)
  r2 : int array;  (* R^2 mod m, k limbs: converts into Montgomery form *)
  one : int array;  (* R mod m, k limbs: the Montgomery form of 1 *)
}

(* Zero-pad a normalized magnitude to exactly [k] limbs. *)
let pad (k : int) (a : int array) : int array =
  let r = Array.make k 0 in
  Array.blit a 0 r 0 (Array.length a);
  r

let create (m : int array) : ctx option =
  if Limbs.is_zero m || m.(0) land 1 = 0 then None
  else begin
    let k = Array.length m in
    (* Hensel lifting: for odd m0, m0 is its own inverse mod 8; each
       Newton step x <- x*(2 - m0*x) doubles the valid bits, so four
       steps reach 48 >= 31 bits. *)
    let m0 = m.(0) in
    let inv = ref m0 in
    for _ = 1 to 4 do
      inv := (!inv * (2 - ((m0 * !inv) land mask))) land mask
    done;
    let r_mod_m =
      snd (Limbs.divmod (Limbs.shift_left [| 1 |] (base_bits * k)) m)
    in
    let r2 =
      snd (Limbs.divmod (Limbs.shift_left [| 1 |] (2 * base_bits * k)) m)
    in
    Some
      { m;
        k;
        m0' = (Limbs.base - !inv) land mask;
        r2 = pad k r2;
        one = pad k r_mod_m }
  end

(* r = a * b * R^{-1} mod m for k-limb Montgomery residues a, b < m,
   where [b] is read at limbs [boff, boff + k) so that a flat table row
   can hold several residues.  CIOS: one outer pass per limb of [a],
   each pass adding a_i * b and then folding one limb of the Montgomery
   quotient u * m, shifting the accumulator [t] (k + 2 limbs of scratch)
   down a limb as it goes.  [r] may alias [a] and [b] (a squaring in
   place): both are fully read before [r] is written. *)
let mul_into (ctx : ctx) (t : int array) (a : int array) (b : int array)
    (boff : int) (r : int array) : unit =
  let k = ctx.k and m = ctx.m and m0' = ctx.m0' in
  if
    Array.length a < k || Array.length r < k || Array.length t < k + 2
    || boff < 0 || Array.length b < boff + k
  then invalid_arg "Montgomery.mul: residue shorter than the modulus";
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    let carry = ref 0 in
    for j = 0 to k - 1 do
      let x =
        Array.unsafe_get t j + (ai * Array.unsafe_get b (boff + j)) + !carry
      in
      Array.unsafe_set t j (x land mask);
      carry := x lsr base_bits
    done;
    let x = Array.unsafe_get t k + !carry in
    Array.unsafe_set t k (x land mask);
    Array.unsafe_set t (k + 1) (x lsr base_bits);
    let t0 = Array.unsafe_get t 0 in
    let u = (t0 * m0') land mask in
    (* t.(0) + u*m.(0) is divisible by the base by construction. *)
    let carry = ref ((t0 + (u * Array.unsafe_get m 0)) lsr base_bits) in
    for j = 1 to k - 1 do
      let x = Array.unsafe_get t j + (u * Array.unsafe_get m j) + !carry in
      Array.unsafe_set t (j - 1) (x land mask);
      carry := x lsr base_bits
    done;
    let x = Array.unsafe_get t k + !carry in
    Array.unsafe_set t (k - 1) (x land mask);
    Array.unsafe_set t k (Array.unsafe_get t (k + 1) + (x lsr base_bits))
  done;
  (* The accumulator is < 2m; one conditional subtraction finishes. *)
  let ge =
    t.(k) > 0
    ||
    let rec cmp i =
      if i < 0 then true
      else if t.(i) <> m.(i) then t.(i) > m.(i)
      else cmp (i - 1)
    in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = t.(j) - m.(j) - !borrow in
      if d < 0 then begin
        r.(j) <- d + Limbs.base;
        borrow := 1
      end
      else begin
        r.(j) <- d;
        borrow := 0
      end
    done
  end
  else Array.blit t 0 r 0 k

let mul (ctx : ctx) (a : int array) (b : int array) : int array =
  let r = Array.make ctx.k 0 in
  mul_into ctx (Array.make (ctx.k + 2) 0) a b 0 r;
  r

let to_mont (ctx : ctx) (x : int array) : int array =
  let x = if Limbs.compare x ctx.m >= 0 then snd (Limbs.divmod x ctx.m) else x in
  mul ctx (pad ctx.k x) ctx.r2

(* REDC(a * 1) drops the R factor and leaves a normalized magnitude. *)
let from_mont (ctx : ctx) (a : int array) : int array =
  let one_raw = Array.make ctx.k 0 in
  one_raw.(0) <- 1;
  Limbs.normalize (mul ctx a one_raw)

(* ------------------------------------------------------------------ *)
(* Exponentiation kernels                                              *)
(* ------------------------------------------------------------------ *)

let window_bits = 4

(* Exponent bits [lo, lo+4) as an integer in 0..15. *)
let window (e : int array) (lo : int) : int =
  (if Limbs.testbit e lo then 1 else 0)
  lor (if Limbs.testbit e (lo + 1) then 2 else 0)
  lor (if Limbs.testbit e (lo + 2) then 4 else 0)
  lor (if Limbs.testbit e (lo + 3) then 8 else 0)

(* base^exp mod m by left-to-right fixed 4-bit windows: 4 squarings plus
   at most one table multiply per window, against one multiply per set
   bit for the binary ladder. *)
let pow (ctx : ctx) ~(base : int array) ~(exp : int array) : int array =
  let nb = Limbs.numbits exp in
  if nb = 0 then from_mont ctx ctx.one
  else begin
    let bm = to_mont ctx base in
    let tbl = Array.make 16 ctx.one in
    tbl.(1) <- bm;
    for d = 2 to 15 do
      tbl.(d) <- mul ctx tbl.(d - 1) bm
    done;
    let nwin = (nb + window_bits - 1) / window_bits in
    (* The top window contains the most significant bit, so it is
       non-zero and seeds the accumulator without leading squarings. *)
    let acc = ref tbl.(window exp ((nwin - 1) * window_bits)) in
    for wi = nwin - 2 downto 0 do
      acc := mul ctx !acc !acc;
      acc := mul ctx !acc !acc;
      acc := mul ctx !acc !acc;
      acc := mul ctx !acc !acc;
      let d = window exp (wi * window_bits) in
      if d <> 0 then acc := mul ctx !acc tbl.(d)
    done;
    from_mont ctx !acc
  end

(* b1^e1 * b2^e2 mod m, sharing one squaring chain (Shamir's trick):
   max-bits squarings plus one multiply per joint non-zero bit pair,
   against two full independent chains. *)
let pow2 (ctx : ctx) ~(b1 : int array) ~(e1 : int array) ~(b2 : int array)
    ~(e2 : int array) : int array =
  let nb = max (Limbs.numbits e1) (Limbs.numbits e2) in
  if nb = 0 then from_mont ctx ctx.one
  else begin
    let m1 = to_mont ctx b1 in
    let m2 = to_mont ctx b2 in
    let m12 = mul ctx m1 m2 in
    let acc = ref ctx.one and started = ref false in
    for i = nb - 1 downto 0 do
      if !started then acc := mul ctx !acc !acc;
      let d =
        (if Limbs.testbit e1 i then 1 else 0)
        lor (if Limbs.testbit e2 i then 2 else 0)
      in
      if d <> 0 then begin
        let f = match d with 1 -> m1 | 2 -> m2 | _ -> m12 in
        if !started then acc := mul ctx !acc f
        else begin
          acc := f;
          started := true
        end
      end
    done;
    from_mont ctx !acc
  end

(* The w bits of magnitude [e] starting at bit [lo] (little-endian bit
   order), read straight out of the limbs; w never exceeds a limb. *)
let bits_at (e : int array) (lo : int) (w : int) : int =
  let li = lo / Limbs.base_bits and off = lo mod Limbs.base_bits in
  let len = Array.length e in
  if li >= len then 0
  else begin
    let v = Array.unsafe_get e li lsr off in
    let v =
      if off + w > Limbs.base_bits && li + 1 < len then
        v lor (Array.unsafe_get e (li + 1) lsl (Limbs.base_bits - off))
      else v
    in
    v land ((1 lsl w) - 1)
  end

(* Interleaved (Straus) product of base^exp over any number of pairs:
   one shared squaring chain for the whole product.  Each base picks a
   window width by its exponent size — wide exponents amortize a
   per-base digit table (w-bit windows cost one multiply per non-zero
   digit instead of one per set bit), short ones stay narrow so the
   table build is never wasted.  Digit schedules are extracted up front
   and the pairs grouped by width, so the chain's inner loop touches a
   base only at its own digit boundaries. *)
let pow_multi (ctx : ctx) (pairs : (int array * int array) list) : int array =
  let nb =
    List.fold_left (fun acc (_, e) -> max acc (Limbs.numbits e)) 0 pairs
  in
  if nb = 0 then from_mont ctx ctx.one
  else begin
    (* A w-bit window trades a (2^w - 2)-multiply table build for one
       multiply per non-zero w-digit: worthwhile once the exponent has
       enough digits to repay the build. *)
    let prep w =
      List.filter_map
        (fun (b, e) ->
          let n = Limbs.numbits e in
          let w' = if n >= 96 then 4 else if n >= 24 then 2 else 1 in
          if w' <> w || n = 0 then None
          else begin
            let bm = to_mont ctx b in
            let tbl = Array.make ((1 lsl w) - 1) bm in
            for d = 1 to Array.length tbl - 1 do
              tbl.(d) <- mul ctx tbl.(d - 1) bm
            done;
            let nwin = (nb + w - 1) / w in
            let digits = Array.init nwin (fun j -> bits_at e (j * w) w) in
            Some (tbl, digits)
          end)
        pairs
      |> Array.of_list
    in
    let w4 = prep 4 and w2 = prep 2 and w1 = prep 1 in
    let acc = ref ctx.one and started = ref false in
    let mul_acc f =
      if !started then acc := mul ctx !acc f
      else begin
        acc := f;
        started := true
      end
    in
    let apply (group : (int array array * int array) array) (win : int) =
      for j = 0 to Array.length group - 1 do
        let tbl, digits = Array.unsafe_get group j in
        let d = Array.unsafe_get digits win in
        if d <> 0 then mul_acc (Array.unsafe_get tbl (d - 1))
      done
    in
    for i = nb - 1 downto 0 do
      if !started then acc := mul ctx !acc !acc;
      if i land 3 = 0 then apply w4 (i lsr 2);
      if i land 1 = 0 then apply w2 (i lsr 1);
      apply w1 i
    done;
    from_mont ctx !acc
  end

(* ------------------------------------------------------------------ *)
(* Fixed-base comb tables                                              *)
(* ------------------------------------------------------------------ *)

(* A Lim-Lee comb with [teeth] = 8 teeth.  For exponents of at most
   8 * cols bits, split e into eight blocks of [cols] bits, e = sum_j
   E_j 2^(j * cols); column i of the comb is the 8-bit number u_i whose
   bit j is bit i of E_j.  With G[u] = prod_{j in u} b^(2^(j * cols))
   precomputed for u = 1..255, b^e = prod_i G[u_i]^(2^i), which a
   left-to-right pass over the columns evaluates with cols - 1
   squarings and at most cols multiplies.  The 255 residues live in ONE
   flat array, G[u] at limb offset (u - 1) * k.  Against a 4-bit window
   table (15 residues per window, no squarings) this takes about the
   same number of products from half the memory, and two tables of
   equal width share their squarings. *)
let teeth = 8

type comb = { cols : int; g : int array }

let comb_build (ctx : ctx) ~(base : int array) ~(bits : int) : comb =
  let k = ctx.k and cols = max 1 ((bits + teeth - 1) / teeth) in
  let t = Array.make (k + 2) 0 in
  let g = Array.make (((1 lsl teeth) - 1) * k) 0 in
  (* G[2^j] = b^(2^(j * cols)): cols squarings from one tooth to the next *)
  let cur = to_mont ctx base in
  for j = 0 to teeth - 1 do
    if j > 0 then
      for _ = 1 to cols do
        mul_into ctx t cur cur 0 cur
      done;
    Array.blit cur 0 g (((1 lsl j) - 1) * k) k
  done;
  (* G[u] = G[u without its lowest bit] * G[lowest bit of u] *)
  let e = Array.make k 0 in
  for u = 3 to (1 lsl teeth) - 1 do
    let low = u land -u in
    if u <> low then begin
      Array.blit g ((low - 1) * k) e 0 k;
      mul_into ctx t e g ((u - low - 1) * k) e;
      Array.blit e 0 g ((u - 1) * k) k
    end
  done;
  { cols; g }

(* Column i of exponent [e] for a comb of [cols] columns. *)
let column (e : int array) (cols : int) (i : int) : int =
  let len = Array.length e and u = ref 0 in
  for j = teeth - 1 downto 0 do
    let pos = (j * cols) + i in
    let li = pos / base_bits in
    let bit =
      if li < len then (Array.unsafe_get e li lsr (pos - (li * base_bits))) land 1
      else 0
    in
    u := (!u lsl 1) lor bit
  done;
  !u

(* Product of b_j^(e_j) over (comb, exponent) terms, one left-to-right
   pass over the widest comb's columns: every term folds into one shared
   accumulator, squarings are shared, and the result leaves Montgomery
   form once.  Exponents must fit their comb (8 * cols bits). *)
let comb_exp (ctx : ctx) (terms : (comb * int array) list) : int array =
  let k = ctx.k in
  let t = Array.make (k + 2) 0 in
  let cols = List.fold_left (fun m ((c : comb), _) -> max m c.cols) 0 terms in
  (* an empty accumulator stands for 1: no squaring before the first
     non-zero column, and the first factor is copied, not multiplied *)
  let acc = ref [||] in
  for i = cols - 1 downto 0 do
    if Array.length !acc > 0 then mul_into ctx t !acc !acc 0 !acc;
    List.iter
      (fun ((c : comb), e) ->
        if i < c.cols then begin
          let u = column e c.cols i in
          if u <> 0 then
            if Array.length !acc = 0 then acc := Array.sub c.g ((u - 1) * k) k
            else mul_into ctx t !acc c.g ((u - 1) * k) !acc
        end)
      terms
  done;
  from_mont ctx (if Array.length !acc = 0 then ctx.one else !acc)

(* ------------------------------------------------------------------ *)
(* Context cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Protocols hammer a handful of moduli (the group prime p, the RSA
   modulus N); a small move-to-front list amortizes the two long
   divisions of [create] across every exponentiation with the same
   modulus. *)
let cache_capacity = 8
let cache : (int array * ctx) list ref = ref []

let create_cached (m : int array) : ctx option =
  let rec take acc = function
    | [] -> None
    | ((m', ctx) as hd) :: tl ->
      if Limbs.compare m m' = 0 then begin
        cache := hd :: List.rev_append acc tl;
        Some ctx
      end
      else take (hd :: acc) tl
  in
  match take [] !cache with
  | Some ctx -> Some ctx
  | None ->
    (match create m with
    | None -> None
    | Some ctx ->
      cache := (m, ctx) :: !cache;
      (match List.filteri (fun i _ -> i < cache_capacity) !cache with
      | trimmed -> cache := trimmed);
      Some ctx)
