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

val broadcast : t -> string -> unit
val handle : t -> src:int -> msg -> unit
val delivered : t -> (string * Keyring.cert) option

val check_transferred :
  'm Proto_io.t -> tag:string -> sender:int -> string -> Keyring.cert -> bool
(** Re-validate a (payload, certificate) pair carried inside another
    protocol's justification, through the checker's {!Proto_io}. *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string
