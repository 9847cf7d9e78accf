(* Random-oracle helpers: domain separation, unambiguous encoding of
   structured inputs, and hashing into integer ranges.

   Every protocol use of a hash function in the paper's model is a random
   oracle with its own domain (coin names, Fiat-Shamir challenges, TDH2
   key derivation, message digests for signing).  These helpers make each
   use an injective encoding under a distinct tag. *)

(* Length-prefixed concatenation: unambiguous for any list of strings. *)
let encode (parts : string list) : string =
  Wire.build (fun buf -> List.iter (Wire.add_bytes buf) parts)

let decode (s : string) : string list option =
  Wire.parse s (fun r -> Wire.until_end r Wire.bytes)

let hash ~domain (parts : string list) : string =
  Sha256.digest_list [ encode (domain :: parts) ]

(* Expand to arbitrary length by counter mode over the oracle. *)
let hash_expand ~domain (parts : string list) ~(len : int) : string =
  let seed = hash ~domain parts in
  if len <= 32 then
    (* single counter block; same bytes as one loop iteration *)
    String.sub (Sha256.digest_list [ seed; "0" ]) 0 len
  else begin
    let buf = Buffer.create len in
    let ctr = ref 0 in
    while Buffer.length buf < len do
      Buffer.add_string buf
        (Sha256.digest_list [ seed; string_of_int !ctr ]);
      incr ctr
    done;
    String.sub (Buffer.contents buf) 0 len
  end

(* Hash into [0, bound).  Oversample by 64 bits so the modular reduction
   bias is negligible even for small bounds. *)
let hash_to_bignum_below ~domain (parts : string list) (bound : Bignum.t) :
    Bignum.t =
  if Bignum.sign bound <= 0 then invalid_arg "Ro.hash_to_bignum_below";
  let nbytes = ((Bignum.numbits bound + 7) / 8) + 8 in
  let raw = hash_expand ~domain parts ~len:nbytes in
  Bignum.erem (Bignum.of_bytes_be raw) bound

(* One-time pad keystream for hybrid encryption: XOR with an expansion of
   the shared secret.  Symmetric, so it both encrypts and decrypts. *)
let xor_pad ~domain ~(key : string) (data : string) : string =
  let pad = hash_expand ~domain [ key ] ~len:(String.length data) in
  String.init (String.length data) (fun i ->
      Char.chr (Char.code data.[i] lxor Char.code pad.[i]))
