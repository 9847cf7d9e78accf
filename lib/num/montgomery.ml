(* Montgomery (REDC) arithmetic for odd moduli.

   For an odd modulus m, residues are kept in Montgomery form
   x~ = x * R mod m with R = 2^(28k), where k is the number of 28-bit
   limbs of m.  Residues are private to this module: they live in raw
   [int array]s of exactly [k] base-2^28 limbs (zero-padded, not
   normalized), and [to_mont] / [from_mont] repack between them and the
   31-bit {!Limbs} magnitudes the rest of the library uses.  Exponents
   stay 31-bit magnitudes.

   One product, [mul_into], does every multiplication.  It is Koc's
   product-scanning (FIPS) REDC: column i of a * b + u * m is summed in
   one native int, the Montgomery digit u_i that clears the low column
   is picked as soon as that column is complete, and a column costs one
   shift, not a mask, shift and carry per product.  [create] picks the
   routine once, from k: the limb counts the stack deploys (k = 4 for
   96-bit RSA primes, 5 for the 128-bit group, 7 for a 192-bit RSA
   modulus) get a straight-line kernel of [Montgomery_kernels], which
   [gen/redc_gen.ml] generates with every limb and digit in a local and
   each column one sum of at most 2k products; every other k takes the
   generic loop [mul_generic].  Both return the same limbs.

   The narrow limb is what makes the lazy column sum possible.  A
   product of two 28-bit limbs is below 2^56, so a column absorbs 60
   products (30 a*b + u*m pairs) on top of a value below 2^28 and stays
   below 2^28 + 60 * 2^56 < 2^62 <= max_int, whatever k is.  Columns
   with more pairs fold every [fold_pairs] pairs: the bits above 2^28
   move into a second counter [hi] (in units of 2^28) and the running
   sum drops back below 2^28.  The carry into the next column is split
   the same way, so every column starts below 2^28 too. *)

let limb_bits = 28
let limb_mask = (1 lsl limb_bits) - 1
let fold_pairs = 30

type ctx = {
  m : int array;  (* the odd modulus as a normalized 31-bit magnitude *)
  k : int;  (* 28-bit limbs of m *)
  n : int array;  (* m in k 28-bit limbs *)
  n0' : int;  (* -m^{-1} mod 2^28 *)
  r2 : int array;  (* R^2 mod m, k 28-bit limbs: converts into Montgomery form *)
  one : int array;  (* R mod m, k 28-bit limbs: the Montgomery form of 1 *)
  kernel : Montgomery_kernels.kernel option;  (* the straight-line product for k *)
}

(* Repack a little-endian array of [src_bits]-bit limbs into [len] limbs
   of [dst_bits] bits.  The bit buffer never holds more than
   src_bits + dst_bits - 1 < 62 bits.  Bits beyond [len] limbs must be
   zero. *)
let repack ~src_bits ~dst_bits (src : int array) (len : int) : int array =
  let dst = Array.make len 0 and dmask = (1 lsl dst_bits) - 1 in
  let acc = ref 0 and nacc = ref 0 and j = ref 0 in
  Array.iter
    (fun x ->
      acc := !acc lor (x lsl !nacc);
      nacc := !nacc + src_bits;
      while !nacc >= dst_bits && !j < len do
        dst.(!j) <- !acc land dmask;
        acc := !acc lsr dst_bits;
        nacc := !nacc - dst_bits;
        incr j
      done)
    src;
  if !j < len then dst.(!j) <- !acc;
  dst

(* A magnitude below 2^(28k) as exactly [k] residue limbs. *)
let of_limbs (k : int) (a : int array) : int array =
  repack ~src_bits:Limbs.base_bits ~dst_bits:limb_bits a k

(* k residue limbs back to a normalized 31-bit magnitude. *)
let to_limbs (r : int array) : int array =
  let len = ((limb_bits * Array.length r) + Limbs.base_bits - 1) / Limbs.base_bits in
  Limbs.normalize (repack ~src_bits:limb_bits ~dst_bits:Limbs.base_bits r len)

let create (m : int array) : ctx option =
  if Limbs.is_zero m || m.(0) land 1 = 0 then None
  else begin
    let k = (Limbs.numbits m + limb_bits - 1) / limb_bits in
    let n = of_limbs k m in
    (* Hensel lifting: for odd n0, n0 is its own inverse mod 8; each
       Newton step x <- x*(2 - n0*x) doubles the valid bits, so four
       steps reach 48 >= 28 bits. *)
    let n0 = n.(0) in
    let inv = ref n0 in
    for _ = 1 to 4 do
      inv := (!inv * (2 - ((n0 * !inv) land limb_mask))) land limb_mask
    done;
    let r_pow e = of_limbs k (snd (Limbs.divmod (Limbs.shift_left [| 1 |] e) m)) in
    Some
      { m;
        k;
        n;
        n0' = ((1 lsl limb_bits) - !inv) land limb_mask;
        r2 = r_pow (2 * limb_bits * k);
        one = r_pow (limb_bits * k);
        kernel = Montgomery_kernels.find k }
  end

(* acc + the sum over j in [j, stop) of a_j * b_(bi-j) + u_j * n_(i-j):
   a tail-recursive loop, so every operand stays in a register *)
let rec pairs a b u n bi i j stop acc =
  if j = stop then acc
  else
    pairs a b u n bi i (j + 1) stop
      (acc
      + (Array.unsafe_get a j * Array.unsafe_get b (bi - j))
      + (Array.unsafe_get u j * Array.unsafe_get n (i - j)))

(* r = a * b * R^{-1} mod m for k-limb residues a, b < m, where [b] is
   read at limbs [boff, boff + k) so that a flat table can hold several
   residues.  [u] (k limbs of scratch) receives the Montgomery quotient
   digits.  Columns 0..k-1 of a*b + u*m pick u_i and are shifted out;
   columns k..2k-1 are the result.  Column i of the high half reads
   only limbs above i - k of [a] and [b], so [r] may alias [a], or [b]
   at [boff = 0] (a squaring in place): every limb is read before it is
   overwritten. *)
let mul_generic (ctx : ctx) (u : int array) (a : int array) (b : int array)
    (boff : int) (r : int array) : unit =
  let k = ctx.k and n = ctx.n and n0' = ctx.n0' in
  if
    Array.length a < k || Array.length r < k || Array.length u < k
    || boff < 0 || Array.length b < boff + k
  then invalid_arg "Montgomery.mul: residue shorter than the modulus";
  (* [c] is the carry into the current column; the column's running
     value is hi * 2^28 + acc, with acc < 2^28 after every fold *)
  let c = ref 0 and hi = ref 0 and acc = ref 0 in
  for i = 0 to (2 * k) - 2 do
    hi := !c lsr limb_bits;
    acc := !c land limb_mask;
    let lo = if i < k then 0 else i - k + 1 and top = if i < k then i else k in
    let j = ref lo in
    while !j < top do
      let stop = if top - !j > fold_pairs then !j + fold_pairs else top in
      let s = pairs a b u n (boff + i) i !j stop !acc in
      hi := !hi + (s lsr limb_bits);
      acc := s land limb_mask;
      j := stop
    done;
    if i < k then begin
      (* the last pair of a low column: a_i * b_0, then the digit u_i
         that makes the column divisible by 2^28 *)
      acc := !acc + (Array.unsafe_get a i * Array.unsafe_get b boff);
      let ui = (!acc * n0') land limb_mask in
      Array.unsafe_set u i ui;
      acc := !acc + (ui * Array.unsafe_get n 0)
    end
    else Array.unsafe_set r (i - k) (!acc land limb_mask);
    c := !hi + (!acc lsr limb_bits)
  done;
  (* column 2k-1 holds only the carry; the result is below 2m *)
  r.(k - 1) <- !c land limb_mask;
  let top = !c lsr limb_bits in
  let ge =
    top > 0
    ||
    let rec cmp i =
      if i < 0 then true
      else if r.(i) <> n.(i) then r.(i) > n.(i)
      else cmp (i - 1)
    in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = r.(j) - n.(j) - !borrow in
      r.(j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end

(* [mul_generic]'s contract, by the routine [create] picked (a
   straight-line kernel leaves the scratch [u] alone). *)
let mul_into (ctx : ctx) (u : int array) (a : int array) (b : int array)
    (boff : int) (r : int array) : unit =
  match ctx.kernel with
  | Some kernel -> kernel ctx.n ctx.n0' a b boff r
  | None -> mul_generic ctx u a b boff r

let mul (ctx : ctx) (a : int array) (b : int array) : int array =
  let r = Array.make ctx.k 0 in
  mul_into ctx (Array.make ctx.k 0) a b 0 r;
  r

let to_mont (ctx : ctx) (x : int array) : int array =
  let x = if Limbs.compare x ctx.m >= 0 then snd (Limbs.divmod x ctx.m) else x in
  mul ctx (of_limbs ctx.k x) ctx.r2

(* REDC(a * 1) drops the R factor and leaves a normalized magnitude. *)
let from_mont (ctx : ctx) (a : int array) : int array =
  let one_raw = Array.make ctx.k 0 in
  one_raw.(0) <- 1;
  to_limbs (mul ctx a one_raw)

(* ------------------------------------------------------------------ *)
(* Exponentiation kernels                                              *)
(* ------------------------------------------------------------------ *)

(* Every kernel below multiplies in place through [mul_into] with one
   scratch array: tables are flat arrays of k-limb rows, and the
   accumulator is squared and multiplied where it lies. *)

(* Rows 1..rows of the powers of residue [bm], row d at limb offset
   (d - 1) * k. *)
let power_table (ctx : ctx) (u : int array) (bm : int array) (rows : int) :
    int array =
  let k = ctx.k in
  let tbl = Array.make (rows * k) 0 in
  let cur = Array.copy bm in
  Array.blit cur 0 tbl 0 k;
  for d = 1 to rows - 1 do
    mul_into ctx u cur bm 0 cur;
    Array.blit cur 0 tbl (d * k) k
  done;
  tbl

(* acc <- acc * the digit at bit i of every term of [terms] from
   [first] on: a (table, exponent, width, top) term with i mod width = 0
   reads its digit from the exponent's limbs. *)
let fold_digits ctx u acc terms i first =
  for j = first to Array.length terms - 1 do
    let tbl, e, w, _ = Array.unsafe_get terms j in
    if i land (w - 1) = 0 then begin
      let d = Limbs.bits_from e i land ((1 lsl w) - 1) in
      if d <> 0 then mul_into ctx u acc tbl ((d - 1) * ctx.k) acc
    end
  done

(* The one variable-base exponentiation: the product of base^exp over
   any number of pairs by Straus interleaving, one squaring chain for
   the whole product.  Each base picks a window width w by its exponent
   size: a w-bit window trades a (2^w - 2)-multiply table build for one
   multiply per non-zero w-digit, so wide exponents take 4 bits and
   short ones stay narrow, where the build would not repay itself.  The
   chain advances [step] bits at a time, the narrowest width (every
   width is a multiple of it); at bit i a base with i mod w = 0 reads
   its digit straight from the exponent's limbs.  The chain starts at
   the highest digit position [top] of any exponent, where that
   exponent's digit holds its top bit, and the accumulator starts as a
   copy of that table row: no squaring or multiply by 1 is spent above
   it. *)
let pow_multi (ctx : ctx) (pairs : (int array * int array) list) : int array =
  let k = ctx.k in
  let u = Array.make k 0 in
  let terms =
    List.filter_map
      (fun (b, e) ->
        let n = Limbs.numbits e in
        if n = 0 then None
        else begin
          let w = if n >= 96 then 4 else if n >= 24 then 2 else 1 in
          Some (power_table ctx u (to_mont ctx b) ((1 lsl w) - 1), e, w, (n - 1) / w * w)
        end)
      pairs
    |> List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> Int.compare b a)
    |> Array.of_list
  in
  if Array.length terms = 0 then from_mont ctx ctx.one
  else begin
    let tbl0, e0, w0, top = terms.(0) in
    let step = Array.fold_left (fun s (_, _, w, _) -> min s w) w0 terms in
    let acc = Array.sub tbl0 (((Limbs.bits_from e0 top land ((1 lsl w0) - 1)) - 1) * k) k in
    fold_digits ctx u acc terms top 1;
    for s = (top / step) - 1 downto 0 do
      for _ = 1 to step do
        mul_into ctx u acc acc 0 acc
      done;
      fold_digits ctx u acc terms (s * step) 0
    done;
    from_mont ctx acc
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
  let u = Array.make k 0 in
  let g = Array.make (((1 lsl teeth) - 1) * k) 0 in
  (* G[2^j] = b^(2^(j * cols)): cols squarings from one tooth to the next *)
  let cur = to_mont ctx base in
  for j = 0 to teeth - 1 do
    if j > 0 then
      for _ = 1 to cols do
        mul_into ctx u cur cur 0 cur
      done;
    Array.blit cur 0 g (((1 lsl j) - 1) * k) k
  done;
  (* G[u] = G[u without its lowest bit] * G[lowest bit of u] *)
  let e = Array.make k 0 in
  for v = 3 to (1 lsl teeth) - 1 do
    let low = v land -v in
    if v <> low then begin
      Array.blit g ((low - 1) * k) e 0 k;
      mul_into ctx u e g ((v - low - 1) * k) e;
      Array.blit e 0 g ((v - 1) * k) k
    end
  done;
  { cols; g }

(* Column i of exponent [e] for a comb of [cols] columns. *)
let column (e : int array) (cols : int) (i : int) : int =
  let base_bits = Limbs.base_bits in
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
  let u = Array.make k 0 in
  let cols = List.fold_left (fun m ((c : comb), _) -> max m c.cols) 0 terms in
  (* no squaring before the first non-zero column, and the first factor
     is copied, not multiplied *)
  let acc = Array.make k 0 and started = ref false in
  for i = cols - 1 downto 0 do
    if !started then mul_into ctx u acc acc 0 acc;
    List.iter
      (fun ((c : comb), e) ->
        if i < c.cols then begin
          let d = column e c.cols i in
          if d <> 0 then
            if !started then mul_into ctx u acc c.g ((d - 1) * k) acc
            else begin
              Array.blit c.g ((d - 1) * k) acc 0 k;
              started := true
            end
        end)
      terms
  done;
  from_mont ctx (if !started then acc else ctx.one)

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
