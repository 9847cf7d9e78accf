(* SHA-256 (FIPS 180-4), pure OCaml.

   Words are kept in native ints masked to 32 bits; on a 64-bit platform
   all intermediate sums fit without overflow.  This instantiates the
   random oracles required by the threshold coin, the TDH2 cryptosystem
   and the Fiat-Shamir proofs. *)

let word_mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = { h : int array; block : Bytes.t; mutable fill : int; mutable total : int }
(* [block] holds the sub-block tail between feeds; full blocks compress
   straight out of the input string, uncopied. *)

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0 }

let copy ctx =
  { h = Array.copy ctx.h; block = Bytes.copy ctx.block; fill = ctx.fill;
    total = ctx.total }

(* One message schedule buffer, reused across blocks: [compress] is the
   single hottest loop of the whole stack (every Fiat-Shamir challenge,
   coin name and batch coefficient goes through it), so it avoids
   per-block allocation and bounds checks, and spells the rotations out
   inline.  Not re-entrant, which SHA-256 chaining never needs. *)
let sched = Array.make 64 0

let compress (h : int array) (block : string) (off : int) =
  let w = sched in
  for i = 0 to 15 do
    let o = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (String.unsafe_get block o) lsl 24)
      lor (Char.code (String.unsafe_get block (o + 1)) lsl 16)
      lor (Char.code (String.unsafe_get block (o + 2)) lsl 8)
      lor Char.code (String.unsafe_get block (o + 3)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) in
    let s0 =
      (((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14))
      lxor (x lsr 3))
      land word_mask
    in
    let y = Array.unsafe_get w (i - 2) in
    let s1 =
      (((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13))
      lxor (y lsr 10))
      land word_mask
    in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land word_mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e in
    let s1 =
      (((ev lsr 6) lor (ev lsl 26)) lxor ((ev lsr 11) lor (ev lsl 21))
      lxor ((ev lsr 25) lor (ev lsl 7)))
      land word_mask
    in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i)
      land word_mask
    in
    let av = !a in
    let s0 =
      (((av lsr 2) lor (av lsl 30)) lxor ((av lsr 13) lor (av lsl 19))
      lxor ((av lsr 22) lor (av lsl 10)))
      land word_mask
    in
    let maj = (av land !b) lxor (av land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land word_mask in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land word_mask;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + t2) land word_mask
  done;
  h.(0) <- (h.(0) + !a) land word_mask;
  h.(1) <- (h.(1) + !b) land word_mask;
  h.(2) <- (h.(2) + !c) land word_mask;
  h.(3) <- (h.(3) + !d) land word_mask;
  h.(4) <- (h.(4) + !e) land word_mask;
  h.(5) <- (h.(5) + !f) land word_mask;
  h.(6) <- (h.(6) + !g) land word_mask;
  h.(7) <- (h.(7) + !hh) land word_mask

let feed ctx (s : string) =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* top up a partial block first *)
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) len in
    Bytes.blit_string s 0 ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = 64 then begin
      compress ctx.h (Bytes.unsafe_to_string ctx.block) 0;
      ctx.fill <- 0
    end
  end;
  (* full blocks straight from the input *)
  while len - !pos >= 64 do
    compress ctx.h s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.block 0 (len - !pos);
    ctx.fill <- len - !pos
  end

let finalize ctx : string =
  let bitlen = 8 * ctx.total in
  (* Append 0x80, zeros to 56 mod 64, then the 64-bit big-endian length. *)
  let pad = Bytes.make (if ctx.fill < 56 then 64 - ctx.fill else 128 - ctx.fill) '\000' in
  Bytes.set pad 0 '\x80';
  let plen = Bytes.length pad in
  for i = 0 to 7 do
    Bytes.set pad (plen - 8 + i)
      (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done;
  feed ctx (Bytes.unsafe_to_string pad);
  assert (ctx.fill = 0);
  String.init 32 (fun i ->
      Char.chr ((ctx.h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

let digest (s : string) : string =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_list (parts : string list) : string =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let to_hex (d : string) : string =
  let buf = Buffer.create (2 * String.length d) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    d;
  Buffer.contents buf

let hex (s : string) : string = to_hex (digest s)
