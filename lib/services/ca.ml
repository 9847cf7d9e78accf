(* Distributed certification authority (paper, Section 5.1).

   A certificate is "simply a digital signature under the CA's private
   signing key on the public key and the identity claimed by the user" —
   here the service signature the client assembles from the replicas'
   shares *is* the certificate, issued under the CA's single public key
   even though no server ever holds the signing key.

   Requests (all state-changing requests go through atomic broadcast so
   every replica answers identically):
     issue  <id> <public-key> <credentials>   -> certificate body or denial
     lookup <id>                              -> certificate body or "none"
     revoke <id>                              -> confirmation or "none"

   The policy (which credentials are acceptable) is deliberately simple:
   a non-empty credential string that ends in "!ok" passes; real
   deployments substitute their vetting procedure. *)

type entry = { pubkey : string; serial : int; revoked : bool }

type state = {
  table : (string, entry) Hashtbl.t;
  mutable next_serial : int;
}

let credentials_pass (credentials : string) =
  String.length credentials >= 3
  && String.sub credentials (String.length credentials - 3) 3 = "!ok"

let certificate_body ~id ~pubkey ~serial =
  Codec.encode [ "certificate"; id; pubkey; string_of_int serial ]

let issue_request ~id ~pubkey ~credentials =
  Codec.encode [ "issue"; id; pubkey; credentials ]

let lookup_request ~id = Codec.encode [ "lookup"; id ]
let revoke_request ~id = Codec.encode [ "revoke"; id ]

let denial reason = Codec.encode [ "denied"; reason ]

let execute (st : state) (request : string) : string =
  match Codec.decode request with
  | Some [ "issue"; id; pubkey; credentials ] ->
    if not (credentials_pass credentials) then denial "bad credentials"
    else if Hashtbl.mem st.table id then denial "identity already bound"
    else begin
      let serial = st.next_serial in
      st.next_serial <- serial + 1;
      Hashtbl.replace st.table id { pubkey; serial; revoked = false };
      certificate_body ~id ~pubkey ~serial
    end
  | Some [ "lookup"; id ] ->
    (match Hashtbl.find_opt st.table id with
    | Some e when not e.revoked ->
      certificate_body ~id ~pubkey:e.pubkey ~serial:e.serial
    | Some _ -> denial "revoked"
    | None -> denial "unknown identity")
  | Some [ "revoke"; id ] ->
    (match Hashtbl.find_opt st.table id with
    | Some e when not e.revoked ->
      Hashtbl.replace st.table id { e with revoked = true };
      Codec.encode [ "revoked"; id; string_of_int e.serial ]
    | Some _ -> denial "already revoked"
    | None -> denial "unknown identity")
  | Some _ | None -> denial "malformed request"

(* Fast-path admission: lookups read the table without touching it, so
   replicas may answer them directly; issue and revoke mutate and must
   be ordered. *)
let read_only (request : string) : bool =
  match Codec.decode request with
  | Some [ "lookup"; _ ] -> true
  | Some _ | None -> false

(* Fresh per-replica state machine. *)
let make_app () : string -> string =
  let st = { table = Hashtbl.create 16; next_serial = 0 } in
  execute st

(* Client-side check: a certificate for [id] binding [pubkey] is a CA
   response of the right shape together with a valid service signature
   (the caller verifies the signature via {!Keyring.service_verify}). *)
let parse_certificate (body : string) : (string * string * int) option =
  match Codec.decode body with
  | Some [ "certificate"; id; pubkey; serial ] ->
    Option.map (fun s -> (id, pubkey, s)) (Codec.decimal serial)
  | Some _ | None -> None
