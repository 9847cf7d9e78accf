(** The one byte format every wire frame is built from: big-endian u64
    fields, length-prefixed byte fields ([u64] length + bytes), and
    counted lists ([u64] count + items).  {!Ro.encode} is a bare run of
    byte fields; the protocol frames in [Codec] add a magic tag, kind
    bytes and fixed-width fields on top.

    Reading is a cursor over an untrusted string.  Every reader either
    returns a value and advances, or aborts the enclosing {!parse},
    which then returns [None]: a decoder written over this module never
    raises on malformed input, and never over-reads or over-allocates,
    whatever the bytes say. *)

(** {1 Writer} *)

val build : (Buffer.t -> unit) -> string
(** [build write] runs [write] on a fresh buffer and returns its bytes. *)

val add_u64 : Buffer.t -> int -> unit
(** Eight bytes, big-endian.  The value must be non-negative. *)

val add_bytes : Buffer.t -> string -> unit
(** A length-prefixed field: [u64] length, then the bytes. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** A counted list: [u64] item count, then each item. *)

(** {1 Cursor reader} *)

type t
(** A read position inside one field (or the whole input). *)

val parse : string -> (t -> 'a) -> 'a option
(** [parse s read] runs [read] over all of [s].  [None] if any reader
    fails or if [read] leaves bytes unconsumed: a frame is consumed
    exactly or not at all. *)

val fail : unit -> 'a
(** Reject the input being parsed. *)

val check : bool -> unit
(** [check c] rejects the input unless [c] holds. *)

val get : 'a option -> 'a
(** [get (Some v)] is [v]; [get None] rejects the input. *)

val byte : t -> char
(** One byte (kind tags). *)

val fixed : t -> int -> string
(** Exactly [n] bytes. *)

val magic : t -> string -> unit
(** The given tag, byte for byte. *)

val u64 : t -> int
(** A big-endian [u64].  A value [>= 2^62] is rejected: it cannot be a
    length, count or index, and accepting it would shift its high bits
    out of the 63-bit [int], so different bytes would decode alike. *)

val bytes : t -> string
(** A length-prefixed field. *)

val sub : t -> (t -> 'a) -> 'a
(** [sub r read] parses one length-prefixed field with [read], which
    must consume it exactly. *)

val list : t -> min:int -> (t -> 'a) -> 'a list
(** A counted list whose items each take at least [min >= 1] bytes.  A
    count above the bytes left divided by [min] is rejected before any
    item is read, so an untrusted count is never multiplied, never
    allocated for, and never looped on. *)

val until_end : t -> (t -> 'a) -> 'a list
(** Items read back to back until the field ends; each item must
    consume at least one byte. *)

val ascending : above:int -> int list -> unit
(** Rejects the input unless the list is strictly ascending with every
    entry above [above]: the one encoding of a set. *)

val decimal_of_string : string -> int option
(** A decimal integer in exactly the form [string_of_int] writes: no
    sign on non-negative values, no leading zero, no base prefix, no
    underscores.  [None] on any other string. *)

val decimal : t -> int
(** A length-prefixed {!decimal_of_string} field. *)

val nat : t -> Bignum.t
(** A length-prefixed non-negative integer, in exactly the minimal
    big-endian form [Bignum.to_bytes_be] writes: at least one byte, and
    no leading zero byte unless the value is zero. *)
