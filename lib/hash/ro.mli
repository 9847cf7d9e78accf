(** Random-oracle helpers: domain separation, injective encoding of
    structured inputs, and hashing into integer ranges. *)

val encode : string list -> string
(** Length-prefixed concatenation ({!Wire.add_bytes} per part);
    injective on lists of strings. *)

val decode : string -> string list option
(** The one inverse of {!encode}: [None] on a truncated field, a length
    of [2^62] or more, or trailing bytes, so every string that decodes
    re-encodes to itself. *)

val hash : domain:string -> string list -> string
(** Domain-separated digest of an encoded field list (32 bytes). *)

val hash_expand : domain:string -> string list -> len:int -> string
(** Arbitrary-length output by counter-mode expansion. *)

val hash_to_bignum_below : domain:string -> string list -> Bignum.t -> Bignum.t
(** Hash into [\[0, bound)] with negligible modulo bias. *)

val hash_to_bit : domain:string -> string list -> bool

val xor_pad : domain:string -> key:string -> string -> string
(** One-time-pad style symmetric layer for hybrid encryption; involutive
    ([xor_pad ~key (xor_pad ~key m) = m]). *)
