(* Consistent broadcast: Reiter-style echo broadcast with certificates
   (paper, Section 3).

   The sender disseminates a payload; every server returns an
   endorsement (a quorum-certificate share over the payload digest) to
   the sender, who combines a big-quorum of them into a transferable
   delivery certificate and re-broadcasts payload + certificate.

   Compared to reliable broadcast this costs O(n) messages instead of
   O(n^2) and guarantees *uniqueness* of the delivered payload (two
   big-quorums intersect in an honest server, which endorses only one
   payload per instance) but not totality: a party may never deliver,
   although it can always be convinced later by the certificate — which
   is exactly what the validated agreement protocol exploits. *)

type msg =
  | Send of string
  | Echo of Keyring.cert_share  (* back to the sender *)
  | Final of string * Keyring.cert

type t = {
  io : msg Proto_io.t;
  tag : string;  (* instance identity, bound into the statement *)
  sender : int;
  validate : string -> bool;  (* endorse only acceptable payloads *)
  deliver : string -> Keyring.cert -> unit;
  mutable echoed : bool;
  mutable payload : string option;  (* sender side: what we broadcast *)
  mutable shares : (int * Keyring.cert_share) list;  (* sender side *)
  mutable sent_final : bool;
  mutable delivered : (string * Keyring.cert) option;
  mutable sp_inst : int;  (* open trace span; 0 = none *)
  mutable stmt : (string * string) option;
      (* the last payload seen and its statement *)
}

let statement_of ~tag ~sender payload =
  Ro.encode [ "cbc"; tag; string_of_int sender; Sha256.digest payload ]

(* Send, every Echo, every try_final and Final carry the same payload in
   an honest instance: hash it once and reuse the statement while later
   messages carry an equal payload. *)
let statement t payload =
  match t.stmt with
  | Some (p, stmt) when String.equal p payload -> stmt
  | _ ->
    let stmt = statement_of ~tag:t.tag ~sender:t.sender payload in
    t.stmt <- Some (payload, stmt);
    stmt

let create ~(io : msg Proto_io.t) ~tag ~sender ?(validate = fun _ -> true)
    ~deliver () =
  { io;
    tag;
    sender;
    validate;
    deliver;
    echoed = false;
    payload = None;
    shares = [];
    sent_final = false;
    delivered = None;
    sp_inst = 0;
    stmt = None }

let obs t = t.io.Proto_io.obs

let broadcast t payload =
  assert (t.io.Proto_io.me = t.sender);
  t.payload <- Some payload;
  t.sp_inst <-
    Obs.span_begin (obs t) ~party:t.io.Proto_io.me ~tag:t.tag ~layer:"cbc"
      "instance";
  t.io.Proto_io.broadcast (Send payload)

let try_final t =
  match t.payload with
  | None -> ()
  | Some payload ->
    if not t.sent_final then begin
      let stmt = statement t payload in
      match Keyring.make_cert t.io.Proto_io.keyring stmt t.shares with
      | None -> ()
      | Some cert ->
        t.sent_final <- true;
        t.io.Proto_io.broadcast (Final (payload, cert))
    end

let handle t ~src msg =
  match msg with
  | Send payload ->
    if src = t.sender && (not t.echoed) && t.validate payload then begin
      t.echoed <- true;
      if t.io.Proto_io.me <> t.sender then
        t.sp_inst <-
          Obs.span_begin (obs t) ~party:t.io.Proto_io.me ~src ~tag:t.tag
            ~layer:"cbc" "instance";
      t.io.Proto_io.send t.sender
        (Echo (Proto_io.cert_share t.io (statement t payload)))
    end
  | Echo share ->
    (* Once the certificate is out, late echoes are never combined:
       drop them unchecked. *)
    (match t.payload with
    | Some payload when t.io.Proto_io.me = t.sender && not t.sent_final ->
      if
        (not (List.mem_assoc src t.shares))
        && Proto_io.verify_cert_share t.io ~party:src (statement t payload)
             share
      then begin
        t.shares <- (src, share) :: t.shares;
        try_final t
      end
    | Some _ | None -> ())
  | Final (payload, cert) ->
    if
      t.delivered = None
      && Proto_io.verify_cert t.io (statement t payload) cert
    then begin
      t.delivered <- Some (payload, cert);
      Obs.span_end (obs t) t.sp_inst;
      t.sp_inst <- 0;
      Obs.point (obs t) ~party:t.io.Proto_io.me ~src:t.sender ~tag:t.tag
        ~layer:"cbc" "deliver";
      t.deliver payload cert
    end

(* Re-validate a transferred (payload, certificate) pair, e.g. one that
   arrived inside another protocol's justification. *)
let check_transferred io ~tag ~sender payload cert : bool =
  Proto_io.verify_cert io (statement_of ~tag ~sender payload) cert

let msg_size kr = function
  | Send p -> 8 + String.length p
  | Echo _ -> 72
  | Final (p, cert) -> 8 + String.length p + Keyring.cert_size kr cert

let msg_summary = function
  | Send p -> Printf.sprintf "cbc.SEND(%d B)" (String.length p)
  | Echo _ -> "cbc.ECHO"
  | Final (p, _) -> Printf.sprintf "cbc.FINAL(%d B)" (String.length p)
