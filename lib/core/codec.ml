(* Protocol frames over the one wire format of {!Wire}.  The byte-level
   bounds live in {!Wire}; this module only says which fields a frame
   has and which values they may take. *)

let encode = Ro.encode
let decode = Ro.decode
let decimal = Wire.decimal_of_string

let frame magic write =
  Wire.build (fun buf ->
      Buffer.add_string buf magic;
      write buf)

let unframe magic read s =
  Wire.parse s (fun r ->
      Wire.magic r magic;
      read r)

let add_kind buf fast = Buffer.add_char buf (if fast then '\001' else '\000')

let read_kind r =
  match Wire.byte r with '\000' -> false | '\001' -> true | _ -> Wire.fail ()

(* ---------- batch frames -------------------------------------------- *)

(* SBF1: a counted list of payloads carried inside one atomically
   broadcast proposal.  Unlike {!decode}, the explicit count means a
   truncated batch can never pass for a shorter one. *)

let batch_magic = "SBF1"

let encode_batch (payloads : string list) : string =
  frame batch_magic (fun buf -> Wire.add_list buf Wire.add_bytes payloads)

let decode_batch : string -> string list option =
  unframe batch_magic (fun r -> Wire.list r ~min:8 Wire.bytes)

(* ---------- checkpoint frames --------------------------------------- *)

(* SCK1: u64 round + app-state bytes + counted digest list: the bytes a
   state transfer ships.  A checkpoint certificate signs the SCH1 hash
   below, not the hash of this frame. *)

let snapshot_magic = "SCK1"

let encode_snapshot ~round ~app ~digests : string =
  if round < 0 then invalid_arg "Codec.encode_snapshot";
  frame snapshot_magic (fun buf ->
      Wire.add_u64 buf round;
      Wire.add_bytes buf app;
      Wire.add_list buf Wire.add_bytes digests)

let decode_snapshot : string -> (int * string * string list) option =
  unframe snapshot_magic (fun r ->
      let round = Wire.u64 r in
      let app = Wire.bytes r in
      (round, app, Wire.list r ~min:8 Wire.bytes))

(* SCH1: u64 round + app-state bytes + u64 digest count + the history
   digest, a SHA-256 over the SCK1 digest area's items (each a u64
   length and the digest) without its count.  A replica keeps that
   digest running as it delivers, so hashing a checkpoint costs the
   deliveries since the last one, not the whole history; the count and
   the collision-resistant history digest bind the same digest list the
   SCK1 frame carries. *)

let feed_history ctx d =
  Sha256.feed ctx (Wire.build (fun buf -> Wire.add_bytes buf d))

let history_digest digests =
  let ctx = Sha256.init () in
  List.iter (feed_history ctx) digests;
  Sha256.finalize ctx

let snapshot_hash ~round ~app ~count ~history =
  if round < 0 || count < 0 then invalid_arg "Codec.snapshot_hash";
  Sha256.digest
    (frame "SCH1" (fun buf ->
         Wire.add_u64 buf round;
         Wire.add_bytes buf app;
         Wire.add_u64 buf count;
         Wire.add_bytes buf history))

(* A blob paired with its certificate (SCP1: snapshot + checkpoint
   certificate; SEC1: epoch-advance body + advance certificate).  Both
   fields are length-prefixed, so a certificate can never be spliced
   onto different bytes without changing what a verifier hashes. *)

let encode_pair magic a b =
  frame magic (fun buf ->
      Wire.add_bytes buf a;
      Wire.add_bytes buf b)

let decode_pair magic =
  unframe magic (fun r ->
      let a = Wire.bytes r in
      (a, Wire.bytes r))

let ckpt_magic = "SCP1"
let encode_ckpt ~snapshot ~cert = encode_pair ckpt_magic snapshot cert
let decode_ckpt = decode_pair ckpt_magic

(* ---------- service frames ------------------------------------------ *)

(* SVQ1: u64 client + nonce (non-empty) + body.
   SVR1: kind byte (0 ordered / 1 query) + req_digest + u64 server +
         response + serialized signature share.
   SVC1: kind byte + req_digest + response + serialized combined
         service signature. *)

let svc_request_magic = "SVQ1"

let encode_svc_request ~client ~nonce ~body : string =
  if client < 0 then invalid_arg "Codec.encode_svc_request: negative client";
  if nonce = "" then invalid_arg "Codec.encode_svc_request: empty nonce";
  frame svc_request_magic (fun buf ->
      Wire.add_u64 buf client;
      Wire.add_bytes buf nonce;
      Wire.add_bytes buf body)

let decode_svc_request : string -> (int * string * string) option =
  unframe svc_request_magic (fun r ->
      let client = Wire.u64 r in
      let nonce = Wire.bytes r in
      Wire.check (nonce <> "");
      (client, nonce, Wire.bytes r))

let svc_reply_magic = "SVR1"

let encode_svc_reply ~fast ~req_digest ~server ~response ~share : string =
  if server < 0 then invalid_arg "Codec.encode_svc_reply: negative server";
  frame svc_reply_magic (fun buf ->
      add_kind buf fast;
      Wire.add_bytes buf req_digest;
      Wire.add_u64 buf server;
      Wire.add_bytes buf response;
      Wire.add_bytes buf share)

let decode_svc_reply : string -> (bool * string * int * string * string) option
    =
  unframe svc_reply_magic (fun r ->
      let fast = read_kind r in
      let req_digest = Wire.bytes r in
      let server = Wire.u64 r in
      let response = Wire.bytes r in
      (fast, req_digest, server, response, Wire.bytes r))

let reply_cert_magic = "SVC1"

let encode_reply_cert ~fast ~req_digest ~response ~cert : string =
  frame reply_cert_magic (fun buf ->
      add_kind buf fast;
      Wire.add_bytes buf req_digest;
      Wire.add_bytes buf response;
      Wire.add_bytes buf cert)

let decode_reply_cert : string -> (bool * string * string * string) option =
  unframe reply_cert_magic (fun r ->
      let fast = read_kind r in
      let req_digest = Wire.bytes r in
      let response = Wire.bytes r in
      (fast, req_digest, response, Wire.bytes r))

(* ---------- link frames --------------------------------------------- *)

(* SLF1, the byte form of {!Link.frame}: a kind byte, then

     RAW  (0): payload bytes
     DATA (1): u64 seq (>= 1) + payload bytes
     ACK  (2): u64 cum + counted u64 list, strictly ascending and every
               entry > cum (the canonical selective set) *)

let link_magic = "SLF1"

let encode_link_frame (f : string Link.frame) : string =
  frame link_magic (fun buf ->
      match f with
      | Link.Raw m ->
        Buffer.add_char buf '\000';
        Wire.add_bytes buf m
      | Link.Data { seq; payload } ->
        Buffer.add_char buf '\001';
        Wire.add_u64 buf seq;
        Wire.add_bytes buf payload
      | Link.Ack { cum; sel } ->
        Buffer.add_char buf '\002';
        Wire.add_u64 buf cum;
        Wire.add_list buf Wire.add_u64 sel)

let decode_link_frame : string -> string Link.frame option =
  unframe link_magic (fun r ->
      match Wire.byte r with
      | '\000' -> Link.Raw (Wire.bytes r)
      | '\001' ->
        let seq = Wire.u64 r in
        Wire.check (seq >= 1);
        Link.Data { seq; payload = Wire.bytes r }
      | '\002' ->
        let cum = Wire.u64 r in
        let sel = Wire.list r ~min:8 Wire.u64 in
        Wire.ascending ~above:cum sel;
        Link.Ack { cum; sel }
      | _ -> Wire.fail ())

(* ---------- epoch frames -------------------------------------------- *)

(* Exponents are fixed-width big-endian below the group order and group
   elements are fixed-width validated subgroup members, so no
   out-of-range value reaches the crypto layer and every field has one
   encoding. *)

let add_exp g buf v =
  Buffer.add_string buf (Schnorr_group.exponent_to_bytes g v)

let read_exp g r =
  Wire.get
    (Schnorr_group.exponent_of_bytes g
       (Wire.fixed r (Schnorr_group.exponent_len g)))

let add_elt g buf e = Buffer.add_string buf (Schnorr_group.elt_to_bytes g e)

let read_elt g r =
  Wire.get
    (Schnorr_group.elt_of_bytes g (Wire.fixed r (Schnorr_group.elt_len g)))

let add_keys g buf keys = Wire.add_list buf (add_elt g) (Array.to_list keys)

let read_keys g r =
  Array.of_list (Wire.list r ~min:(Schnorr_group.elt_len g) (read_elt g))

(* u64 leaf + u64 party + exponent. *)
let add_subshare g buf (ss : Lsss.subshare) =
  if ss.Lsss.leaf < 0 || ss.Lsss.party < 0 then
    invalid_arg "Codec: negative subshare index";
  Wire.add_u64 buf ss.Lsss.leaf;
  Wire.add_u64 buf ss.Lsss.party;
  add_exp g buf ss.Lsss.value

let read_subshares g r =
  Wire.list r ~min:(16 + Schnorr_group.exponent_len g) (fun r ->
      let leaf = Wire.u64 r in
      let party = Wire.u64 r in
      { Lsss.leaf; party; value = read_exp g r })

(* SER1: u64 dealer + counted deals, each u64 old leaf + counted
   subshares + counted keys. *)

let reshare_magic = "SER1"

let encode_reshare_pkg g (pkg : Proactive.reshare_package) : string =
  if pkg.Proactive.r_dealer < 0 then invalid_arg "Codec.encode_reshare_pkg";
  frame reshare_magic (fun buf ->
      Wire.add_u64 buf pkg.Proactive.r_dealer;
      Wire.add_list buf
        (fun buf (old_leaf, subs, keys) ->
          if old_leaf < 0 then invalid_arg "Codec.encode_reshare_pkg";
          Wire.add_u64 buf old_leaf;
          Wire.add_list buf (add_subshare g) subs;
          add_keys g buf keys)
        pkg.Proactive.r_deals)

let decode_reshare_pkg g : string -> Proactive.reshare_package option =
  unframe reshare_magic (fun r ->
      let r_dealer = Wire.u64 r in
      let r_deals =
        Wire.list r ~min:24 (fun r ->
            let old_leaf = Wire.u64 r in
            let subs = read_subshares g r in
            (old_leaf, subs, read_keys g r))
      in
      { Proactive.r_dealer; r_deals })

(* Monotone access formula, recursively: a leaf is tag 0 plus the party
   index; a threshold gate is tag 1, the threshold k, then the counted
   children.  Strict: k must satisfy 1 <= k <= count, and gates nest at
   most [Pset.max_parties] deep (no structure has more parties), so the
   frame length never sets the recursion depth. *)

let rec add_formula ~depth buf (f : Monotone_formula.t) =
  match f with
  | Monotone_formula.Leaf p ->
    if p < 0 then invalid_arg "Codec: negative formula leaf";
    Buffer.add_char buf '\000';
    Wire.add_u64 buf p
  | Monotone_formula.Threshold (k, children) ->
    if k < 1 || k > List.length children || depth = 0 then
      invalid_arg "Codec: malformed threshold gate";
    Buffer.add_char buf '\001';
    Wire.add_u64 buf k;
    Wire.add_list buf (add_formula ~depth:(depth - 1)) children

let rec read_formula ~depth r : Monotone_formula.t =
  match Wire.byte r with
  | '\000' -> Monotone_formula.Leaf (Wire.u64 r)
  | '\001' ->
    Wire.check (depth > 0);
    let k = Wire.u64 r in
    let children = Wire.list r ~min:9 (read_formula ~depth:(depth - 1)) in
    Wire.check (k >= 1 && k <= List.length children);
    Monotone_formula.Threshold (k, children)
  | _ -> Wire.fail ()

(* SEA1: u64 epoch + target (tag 0 = the current structure, or tag 1 +
   u64 n >= 1 + formula) + counted package frames. *)

let adv_magic = "SEA1"

let encode_epoch_adv ~epoch ~(target : (int * Monotone_formula.t) option)
    ~(pkgs : string list) : string =
  if epoch < 0 then invalid_arg "Codec.encode_epoch_adv";
  frame adv_magic (fun buf ->
      Wire.add_u64 buf epoch;
      (match target with
      | None -> Buffer.add_char buf '\000'
      | Some (n, f) ->
        if n < 1 then invalid_arg "Codec.encode_epoch_adv";
        Buffer.add_char buf '\001';
        Wire.add_u64 buf n;
        add_formula ~depth:Pset.max_parties buf f);
      Wire.add_list buf Wire.add_bytes pkgs)

let decode_epoch_adv :
    string -> (int * (int * Monotone_formula.t) option * string list) option =
  unframe adv_magic (fun r ->
      let epoch = Wire.u64 r in
      let target =
        match Wire.byte r with
        | '\000' -> None
        | '\001' ->
          let n = Wire.u64 r in
          Wire.check (n >= 1);
          Some (n, read_formula ~depth:Pset.max_parties r)
        | _ -> Wire.fail ()
      in
      (epoch, target, Wire.list r ~min:8 Wire.bytes))

let epoch_cert_magic = "SEC1"
let is_epoch_cert s = String.starts_with ~prefix:epoch_cert_magic s
let encode_epoch_cert ~body ~cert = encode_pair epoch_cert_magic body cert
let decode_epoch_cert = decode_pair epoch_cert_magic
