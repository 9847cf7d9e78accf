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
  mutable delivered : bool;
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
    delivered = false;
    sp_inst = 0;
    stmt = None }

(* An instance at rest (no payload, no echo shares, no open span) is
   its three flags: nothing else it holds can change what a later
   message does.  Bit 0 echoed, bit 1 sent_final, bit 2 delivered. *)
type flags = int

let bit b i = if b then 1 lsl i else 0

let flags t =
  if t.payload = None && t.shares = [] && t.sp_inst = 0 then
    Some (bit t.echoed 0 lor bit t.sent_final 1 lor bit t.delivered 2)
  else None

(* Echoed and delivered: a SEND is never echoed again, a FINAL never
   verified again, and with no payload an ECHO is never combined. *)
let settled f = f land 0b101 = 0b101

let of_flags f ~io ~tag ~sender ?validate ~deliver () =
  let t = create ~io ~tag ~sender ?validate ~deliver () in
  t.echoed <- f land 1 <> 0;
  t.sent_final <- f land 2 <> 0;
  t.delivered <- f land 4 <> 0;
  t

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

(* A delivered instance whose FINAL is out (if it is the sender) only
   still answers a late SEND with an echo, which needs its flags alone:
   the payload, the echoes and the cached statement go. *)
let release t =
  if t.delivered && (t.sent_final || t.io.Proto_io.me <> t.sender) then begin
    t.payload <- None;
    t.shares <- [];
    t.stmt <- None
  end

let handle t ~src msg =
  (match msg with
  | Send payload ->
    if src = t.sender && (not t.echoed) && t.validate payload then begin
      t.echoed <- true;
      if t.io.Proto_io.me <> t.sender then
        t.sp_inst <-
          Obs.span_begin (obs t) ~party:t.io.Proto_io.me ~src ~tag:t.tag
            ~layer:"cbc" "instance";
      t.io.Proto_io.send t.sender
        (Echo (Proto_io.sign t.io (statement t payload)))
    end
  | Echo share ->
    (* Once the certificate is out, late echoes are never combined:
       drop them unchecked. *)
    (match t.payload with
    | Some payload when t.io.Proto_io.me = t.sender && not t.sent_final ->
      if
        (not (List.mem_assoc src t.shares))
        && Proto_io.verify_signature t.io ~party:src (statement t payload)
             share
      then begin
        t.shares <- (src, share) :: t.shares;
        try_final t
      end
    | Some _ | None -> ())
  | Final (payload, cert) ->
    if
      (not t.delivered)
      && Proto_io.verify_cert t.io (statement t payload) cert
    then begin
      t.delivered <- true;
      Obs.span_end (obs t) t.sp_inst;
      t.sp_inst <- 0;
      Obs.point (obs t) ~party:t.io.Proto_io.me ~src:t.sender ~tag:t.tag
        ~layer:"cbc" "deliver";
      t.deliver payload cert
    end);
  release t

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
