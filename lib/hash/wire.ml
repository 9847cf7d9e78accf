(* The one wire byte format: big-endian u64 fields, length-prefixed byte
   fields and counted lists, written into a Buffer and read back by a
   cursor that aborts the whole parse on the first malformed byte.

   Every bound is checked against the bytes left before anything is
   read or allocated, and no untrusted length or count is ever used in
   an arithmetic expression that could wrap: lists are bounded by
   dividing the bytes left by the smallest item size. *)

let build (write : Buffer.t -> unit) : string =
  let buf = Buffer.create 64 in
  write buf;
  Buffer.contents buf

let add_u64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let add_bytes buf s =
  add_u64 buf (String.length s);
  Buffer.add_string buf s

let add_list buf add xs =
  add_u64 buf (List.length xs);
  List.iter (add buf) xs

(* A cursor reads [s] from [pos] up to [stop]; a {!sub} field gets its
   own cursor whose [stop] is the field's end. *)
type t = { s : string; mutable pos : int; stop : int }

exception Malformed

let fail () = raise Malformed
let check c = if not c then raise Malformed
let get = function Some v -> v | None -> raise Malformed

let parse (s : string) (read : t -> 'a) : 'a option =
  let r = { s; pos = 0; stop = String.length s } in
  match read r with
  | v -> if r.pos = r.stop then Some v else None
  | exception Malformed -> None

(* [n] is untrusted: compare it with what is left, never add it to pos
   first. *)
let take r n =
  if n < 0 || n > r.stop - r.pos then raise Malformed;
  let p = r.pos in
  r.pos <- p + n;
  p

let byte r = String.unsafe_get r.s (take r 1)
let fixed r n = String.sub r.s (take r n) n

let magic r m = check (fixed r (String.length m) = m)

let u64 r =
  let p = take r 8 in
  if Char.code r.s.[p] land 0xC0 <> 0 then raise Malformed;
  let v = ref 0 in
  for i = p to p + 7 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get r.s i)
  done;
  !v

let bytes r = fixed r (u64 r)

let sub r read =
  let n = u64 r in
  let p = take r n in
  let field = { s = r.s; pos = p; stop = p + n } in
  let v = read field in
  check (field.pos = field.stop);
  v

let list r ~min read =
  if min < 1 then invalid_arg "Wire.list";
  let n = u64 r in
  check (n <= (r.stop - r.pos) / min);
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (read r :: acc) in
  go n []

let until_end r read =
  let rec go acc =
    if r.pos = r.stop then List.rev acc
    else
      let p = r.pos in
      let v = read r in
      check (r.pos > p);
      go (v :: acc)
  in
  go []

let rec ascending ~above = function
  | [] -> ()
  | x :: xs ->
    check (x > above);
    ascending ~above:x xs

let decimal_of_string s =
  match int_of_string_opt s with
  | Some v when string_of_int v = s -> Some v
  | Some _ | None -> None

let decimal r = get (decimal_of_string (bytes r))

let nat r =
  let s = bytes r in
  check (s <> "" && (String.length s = 1 || s.[0] <> '\000'));
  Bignum.of_bytes_be s
