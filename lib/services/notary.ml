(* Digital notary / time-stamping service (paper, Section 5.2): receives
   documents, assigns them consecutive sequence numbers (a logical
   clock), and certifies the assignment with the service signature — a
   secure document registry for, e.g., patent filings or domain-name
   assignment.

   The notary must be deployed over *secure causal* atomic broadcast:
   requests stay encrypted until their position in the order is fixed,
   so a corrupted server cannot read a pending filing and front-run it
   with a related one (and CCA security of TDH2 prevents submitting a
   mauled, related ciphertext).  The service logic itself is oblivious
   to the transport; the deployment picks the broadcast flavour.

   Requests:
     register <document>   -> "registered" seq digest (first-come wins)
     query <digest>        -> the registration record, or "unregistered" *)

type record = { seq : int; digest : string }

type state = {
  by_digest : (string, record) Hashtbl.t;
  mutable next_seq : int;
}

let register_request ~document = Codec.encode [ "register"; document ]
let query_request ~digest = Codec.encode [ "query"; digest ]

let registration_body ~seq ~digest =
  Codec.encode [ "registered"; string_of_int seq; digest ]

let execute (st : state) (request : string) : string =
  match Codec.decode request with
  | Some [ "register"; document ] ->
    let digest = Sha256.digest document in
    (match Hashtbl.find_opt st.by_digest digest with
    | Some r ->
      (* Already registered: certify the original sequence number, so
         the later filer learns it lost the race. *)
      registration_body ~seq:r.seq ~digest
    | None ->
      let seq = st.next_seq in
      st.next_seq <- seq + 1;
      Hashtbl.replace st.by_digest digest { seq; digest };
      registration_body ~seq ~digest)
  | Some [ "query"; digest ] ->
    (match Hashtbl.find_opt st.by_digest digest with
    | Some r -> registration_body ~seq:r.seq ~digest
    | None -> Codec.encode [ "unregistered"; digest ])
  | Some _ | None -> Codec.encode [ "error"; "malformed request" ]

(* Fast-path admission: queries read the registry without touching it.
   Registrations must be ordered — and confidentially so (a direct
   plaintext registration would reopen the front-running window the
   secure causal broadcast closes). *)
let read_only (request : string) : bool =
  match Codec.decode request with
  | Some [ "query"; _ ] -> true
  | Some _ | None -> false

let make_app () : string -> string =
  let st = { by_digest = Hashtbl.create 16; next_seq = 0 } in
  execute st

let parse_registration (body : string) : (int * string) option =
  match Codec.decode body with
  | Some [ "registered"; seq; digest ] ->
    Option.map (fun s -> (s, digest)) (Codec.decimal seq)
  | Some _ | None -> None
