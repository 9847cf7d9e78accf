(* Distributed authentication service (paper, Section 5: the MAFTIA
   deliverable's authentication service, a Kerberos-style ticket
   granter).

   Users register a verifier (the salted hash of their password); a
   successful login returns a ticket body whose threshold service
   signature IS the ticket — any relying service verifies it against the
   authentication service's single public key.  Tickets carry the
   service's logical clock (the count of executed requests) as issue
   time, so relying parties can enforce freshness windows without any
   real-time assumption.

   Login requests contain the password, so deployments should use the
   Confidential (secure causal broadcast) engine: the password must not
   be visible to corrupted servers before the request is ordered — the
   same reasoning as the notary. *)

type account = { salt : string; verifier : string }

type state = {
  accounts : (string, account) Hashtbl.t;
  mutable clock : int;  (* logical issue time *)
}

let hash_password ~salt ~password =
  Sha256.to_hex (Ro.hash ~domain:"auth/verifier" [ salt; password ])

let register_request ~user ~password ~salt =
  Codec.encode [ "register"; user; salt; hash_password ~salt ~password ]

let login_request ~user ~password = Codec.encode [ "login"; user; password ]
let change_password_request ~user ~old_password ~new_password ~salt =
  Codec.encode
    [ "change"; user; old_password; salt;
      hash_password ~salt ~password:new_password ]

let ticket_body ~user ~issued_at =
  Codec.encode [ "ticket"; user; string_of_int issued_at ]

let denial reason = Codec.encode [ "denied"; reason ]

let execute (st : state) (request : string) : string =
  st.clock <- st.clock + 1;
  match Codec.decode request with
  | Some [ "register"; user; salt; verifier ] ->
    if Hashtbl.mem st.accounts user then denial "user exists"
    else begin
      Hashtbl.replace st.accounts user { salt; verifier };
      Codec.encode [ "registered"; user ]
    end
  | Some [ "login"; user; password ] ->
    (match Hashtbl.find_opt st.accounts user with
    | None -> denial "unknown user"
    | Some acct ->
      if hash_password ~salt:acct.salt ~password = acct.verifier then
        ticket_body ~user ~issued_at:st.clock
      else denial "bad password")
  | Some [ "change"; user; old_password; salt; verifier ] ->
    (match Hashtbl.find_opt st.accounts user with
    | None -> denial "unknown user"
    | Some acct ->
      if hash_password ~salt:acct.salt ~password:old_password = acct.verifier
      then begin
        Hashtbl.replace st.accounts user { salt; verifier };
        Codec.encode [ "changed"; user ]
      end
      else denial "bad password")
  | Some _ | None -> denial "malformed request"

let make_app () : string -> string =
  let st = { accounts = Hashtbl.create 16; clock = 0 } in
  execute st

(* Relying-party side: a ticket is (body, service signature); this parses
   the body, the caller checks the signature with
   {!Keyring.service_verify} and applies its own freshness window on the
   logical issue time. *)
let parse_ticket (body : string) : (string * int) option =
  match Codec.decode body with
  | Some [ "ticket"; user; issued ] ->
    Option.map (fun t -> (user, t)) (Codec.decimal issued)
  | Some _ | None -> None
