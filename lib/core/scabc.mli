(** Secure causal atomic broadcast (paper, Sections 3 and 5.2): atomic
    broadcast composed with the TDH2 threshold cryptosystem.

    Requests are ordered as ciphertexts and decrypted only after their
    position is fixed, so contents stay secret until scheduled; CCA
    security prevents a corrupted server from submitting a related
    request (front-running protection for notary-style services).

    A slot lives from ordering to delivery: at delivery its ciphertext
    and decryption shares go and only its digest stays, so a repeat is
    not ordered twice and a late share is dropped.  Per-request state
    is bounded without checkpoints; the underlying {!Abc}'s delivered
    history and delivered rounds (each a tombstone, or its CBCs' flags
    while one can still answer a late message) are not. *)

type msg =
  | Abc_msg of Abc.msg
  | Dec_share of string * Tdh2.dec_share list

type t

val create :
  ?policy:Abc.policy ->
  io:msg Proto_io.t ->
  tag:string ->
  deliver:(label:string -> string -> unit) ->
  unit ->
  t
(** [deliver] receives decrypted requests strictly in the agreed order,
    with the authenticated TDH2 label.  [policy] is the batching /
    pipelining policy of the underlying atomic broadcast (ciphertexts
    are what gets batched; decryption still runs per ciphertext). *)

val encrypt_request : Keyring.t -> Prng.t -> label:string -> string -> string
(** Client-side: encrypt a request under the service's public key. *)

val broadcast : t -> string -> unit
(** Order an encrypted request (ciphertext bytes). *)

val handle : t -> src:int -> msg -> unit
val delivered_count : t -> int
val msg_size : Keyring.t -> msg -> int

val abc : t -> Abc.t
(** The underlying atomic-broadcast instance, for introspection
    (delivered counts, log peak). *)
