(* Deterministic pseudo-random generator (splitmix64).

   Used for reproducible simulation schedules, test-parameter generation
   and key generation in the simulated deployments.  Not a cryptographic
   generator; the architecture's security analysis is out of scope for the
   simulator, which only needs unpredictability *within the model* (the
   threshold coin provides that at the protocol level). *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform int in [0, 2^bits), bits <= 62. *)
let bits t b =
  assert (b >= 0 && b <= 62);
  if b = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - b)) land ((1 lsl b) - 1)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the smallest covering power of two. *)
  let nb =
    let rec go b = if 1 lsl b >= bound then b else go (b + 1) in
    go 1
  in
  let rec draw () =
    let v = bits t nb in
    if v < bound then v else draw ()
  in
  draw ()

let bool t = bits t 1 = 1

let float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let bytes t n =
  String.init n (fun _ -> Char.chr (bits t 8))

let split t =
  (* Derive an independently-seeded child generator. *)
  let s = next_int64 t in
  { state = Int64.logxor s 0xD1B54A32D192ED03L }

(* Uniform Bignum in [0, 2^nbits). *)
let bignum_bits t nbits =
  let full = nbits / 8 and rest = nbits mod 8 in
  let s = bytes t (full + if rest > 0 then 1 else 0) in
  let v = Bignum.of_bytes_be s in
  let excess = (8 * String.length s) - nbits in
  Bignum.shift_right v excess

(* Uniform Bignum in [0, bound). *)
let bignum_below t bound =
  if Bignum.sign bound <= 0 then invalid_arg "Prng.bignum_below";
  let nb = Bignum.numbits bound in
  let rec draw () =
    let v = bignum_bits t nb in
    if Bignum.lt v bound then v else draw ()
  in
  draw ()
