(* Magnitude (natural-number) arithmetic on little-endian limb arrays.

   Limbs are stored in OCaml native ints, base 2^31.  On a 64-bit platform
   the product of two limbs plus a carry fits comfortably in the native
   63-bit integer range, which keeps every inner loop allocation-free.
   All arrays handled here are normalized: no trailing zero limb, and the
   empty array represents zero. *)

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

let zero : int array = [||]

let is_zero a = Array.length a = 0

(* Drop trailing zero limbs so that representations are canonical. *)
let normalize (a : int array) : int array =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : int array =
  assert (x >= 0);
  if x = 0 then zero
  else if x < base then [| x |]
  else if x lsr base_bits < base then [| x land mask; x lsr base_bits |]
  else [| x land mask; (x lsr base_bits) land mask; x lsr (2 * base_bits) |]

let to_int_opt (a : int array) : int option =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl base_bits) lor a.(0))
  | 3 when a.(2) < 1 lsl (Sys.int_size - 1 - (2 * base_bits)) ->
    Some ((a.(2) lsl (2 * base_bits)) lor (a.(1) lsl base_bits) lor a.(0))
  | _ -> None

let compare (a : int array) (b : int array) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

(* Requires a >= b. *)
let sub (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  assert (compare a b >= 0);
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let mul_int (a : int array) (x : int) : int array =
  assert (x >= 0 && x < base);
  if x = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * x) + !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let numbits (a : int array) : int =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let b = ref 0 in
    let t = ref top in
    while !t > 0 do
      incr b;
      t := !t lsr 1
    done;
    ((la - 1) * base_bits) + !b
  end

let testbit (a : int array) (i : int) : bool =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : int array) (k : int) : int array =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and off = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- v lsr base_bits
    done;
    normalize r
  end

let shift_right (a : int array) (k : int) : int array =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and off = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi =
          if off > 0 && i + limbs + 1 < la then
            (a.(i + limbs + 1) lsl (base_bits - off)) land mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* The low 62 bits of floor(a / 2^s), read in place from at most three
   limbs: all of it when the quotient is below 2^62. *)
let bits_from (a : int array) (s : int) : int =
  let li = s / base_bits and off = s mod base_bits in
  let len = Array.length a in
  if li >= len then 0
  else begin
    let r = Array.unsafe_get a li lsr off in
    if li + 1 >= len then r
    else begin
      let r = r lor (Array.unsafe_get a (li + 1) lsl (base_bits - off)) in
      if li + 2 >= len then r
      else r lor (Array.unsafe_get a (li + 2) lsl ((2 * base_bits) - off))
    end
  end

(* a * x + b * y for native ints with |a|, |b| < 2^30 and a result
   known to be non-negative.  Each step sums two products below 2^61 in
   magnitude and a carry below 2^31, so the signed column stays inside
   the native int; [asr] carries the borrow when the column is
   negative. *)
let lincomb (a : int) (x : int array) (b : int) (y : int array) : int array =
  let lx = Array.length x and ly = Array.length y in
  let n = max lx ly in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let xi = if i < lx then Array.unsafe_get x i else 0
    and yi = if i < ly then Array.unsafe_get y i else 0 in
    let t = (a * xi) + (b * yi) + !carry in
    Array.unsafe_set r i (t land mask);
    carry := t asr base_bits
  done;
  assert (!carry >= 0);
  r.(n) <- !carry;
  normalize r

(* Short division by a single limb. *)
let divmod_int (a : int array) (d : int) : int array * int =
  assert (d > 0 && d < base);
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

(* Long division, Knuth Algorithm D.  Returns (quotient, remainder). *)
let divmod (a : int array) (b : int array) : int array * int array =
  if is_zero b then invalid_arg "Limbs.divmod: division by zero";
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end else begin
    (* Normalize so that the top limb of the divisor has its high bit set. *)
    let top = b.(Array.length b - 1) in
    let s = ref 0 in
    let t = ref top in
    while !t < base / 2 do
      incr s;
      t := !t lsl 1
    done;
    let shift = !s in
    let u0 = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* u gets one extra limb of headroom for the subtraction steps. *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let continue = ref true in
      while
        !continue
        && (!qhat >= base
            || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue := false
      done;
      (* Multiply and subtract: u[j..j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s2 land mask;
          c := s2 lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land mask
      end else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end
