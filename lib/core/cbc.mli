(** Consistent broadcast: Reiter-style echo broadcast with transferable
    delivery certificates (paper, Section 3).

    O(n) messages; guarantees uniqueness of the delivered payload but not
    totality — a party that missed the broadcast can be convinced later
    by the certificate, which is what validated agreement exploits. *)

type msg =
  | Send of string
  | Echo of Keyring.cert_share
  | Final of string * Keyring.cert

type t

val create :
  io:msg Proto_io.t ->
  tag:string ->
  sender:int ->
  ?validate:(string -> bool) ->
  deliver:(string -> Keyring.cert -> unit) ->
  unit ->
  t
(** [validate] gates endorsement: parties only echo acceptable payloads
    (the external-validity hook of VBA). *)

type flags
(** What an instance at rest still holds: whether it echoed, sent its
    FINAL and delivered.  An immediate value. *)

val flags : t -> flags option
(** [Some] once the instance is at rest — no payload, no echo shares and
    no open trace span — so that {!of_flags} rebuilds an instance that
    answers every later message exactly as this one would. *)

val of_flags :
  flags ->
  io:msg Proto_io.t ->
  tag:string ->
  sender:int ->
  ?validate:(string -> bool) ->
  deliver:(string -> Keyring.cert -> unit) ->
  unit ->
  t

val settled : flags -> bool
(** Echoed and delivered: such an instance ignores every message it can
    still receive. *)

val broadcast : t -> string -> unit
val handle : t -> src:int -> msg -> unit

val check_transferred :
  'm Proto_io.t -> tag:string -> sender:int -> string -> Keyring.cert -> bool
(** Re-validate a (payload, certificate) pair carried inside another
    protocol's justification, through the checker's {!Proto_io}. *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string
