(** SHA-256 (FIPS 180-4), pure OCaml.

    Instantiates every random oracle of the architecture (coin names,
    Fiat–Shamir challenges, key derivation, message digests). *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** Absorb more input. *)

val copy : ctx -> ctx
(** An independent context in the same state: finalizing the copy gives
    the digest of everything fed so far and leaves the original free to
    absorb more (a running digest read at any point). *)

val finalize : ctx -> string
(** Finish and return the 32-byte digest; the context must not be reused. *)

val digest : string -> string
(** One-shot digest (32 raw bytes). *)

val digest_list : string list -> string
(** Digest of the concatenation (without length separation — use
    {!Ro.hash} for injective structured hashing). *)

val to_hex : string -> string
(** Hex rendering of a raw digest (or any byte string). *)

val hex : string -> string
(** [hex s = to_hex (digest s)]. *)
