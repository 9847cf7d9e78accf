(** Protocol frames, all built from the one byte format of {!Wire}.

    Every frame after {!decode} opens with a four-byte magic and carries
    u64 fields, length-prefixed byte fields and counted lists.  Decoders
    are total and strict: on any input they return [None] or a value,
    never raise, never read past the input, and never allocate for a
    count the remaining bytes cannot hold.  They reject a wrong magic or
    kind byte, truncation anywhere, trailing bytes, and any length,
    count or index of [2^62] or more.  A frame that decodes re-encodes to the
    very same bytes, so its hash names it uniquely.  Each decoder below
    is an inverse in this sense and lists only its extra checks. *)

val encode : string list -> string
(** {!Ro.encode}: length-prefixed string lists, used wherever structured
    protocol data rides inside a broadcast payload. *)

val decode : string -> string list option
(** {!Ro.decode}, the total inverse of {!encode}. *)

val decimal : string -> int option
(** {!Wire.decimal_of_string}: an integer field of a decoded list, in
    exactly the form [string_of_int] writes ([+1], [0x1], [1_0], [-0]
    and [01] are [None]). *)

val encode_batch : string list -> string
(** Batch frame for the atomic-broadcast batching layer: magic + payload
    count + [count] length-prefixed payloads.  Deterministic: equal
    batches encode to equal frames. *)

val decode_batch : string -> string list option
(** Inverse of {!encode_batch}.  The explicit count makes every proper
    prefix invalid, so a malformed frame is rejected whole, never
    mis-split into payloads. *)

val encode_snapshot :
  round:int -> app:string -> digests:string list -> string
(** Snapshot frame (magic ["SCK1"]): one replica's ordered state at a
    round boundary — the boundary round, an opaque application-state
    blob, and the delivered log's digest history (oldest first).  This
    is what a state transfer ships; the statement a checkpoint
    certificate signs is {!snapshot_hash} of the same fields, not the
    frame's own hash.  Deterministic: equal snapshots encode equally.
    Raises [Invalid_argument] on a negative round. *)

val decode_snapshot : string -> (int * string * string list) option
(** Inverse of {!encode_snapshot}; a frame that decodes yields the very
    fields, hence the very {!snapshot_hash}, it was encoded from. *)

val feed_history : Sha256.ctx -> string -> unit
(** Absorb one digest of a delivered history as the SCK1 digest area
    lays it out: its u64 length, then its bytes. *)

val history_digest : string list -> string
(** SHA-256 over the digests fed in order by {!feed_history} — the SCK1
    digest area without its count.  A replica keeps the same digest
    running as it delivers ({!Abc.history_digest}). *)

val snapshot_hash :
  round:int -> app:string -> count:int -> history:string -> string
(** The checkpoint statement: SHA-256 of a header frame (magic
    ["SCH1"], its own domain) holding the boundary round, the
    application-state blob, the number of digests and their
    {!history_digest}.  For an SCK1 frame of [(round, app, digests)]
    it is [snapshot_hash ~round ~app ~count:(List.length digests)
    ~history:(history_digest digests)]; a collision-resistant hash
    binds the same digest list as hashing the frame would, at a cost
    independent of the history's length once the history digest is
    known.  Raises [Invalid_argument] on a negative round or count. *)

val encode_ckpt : snapshot:string -> cert:string -> string
(** Certified-checkpoint frame (magic ["SCP1"]): a snapshot frame paired
    with its serialized threshold certificate.  Both fields are
    length-prefixed, so a certificate cannot be spliced onto a different
    snapshot without changing the hashed bytes. *)

val decode_ckpt : string -> (string * string) option
(** Inverse of {!encode_ckpt} ([(snapshot, cert)]). *)

val encode_svc_request : client:int -> nonce:string -> body:string -> string
(** Service request frame (magic ["SVQ1"]): the ordered plaintext of a
    client request — client slot, nonce, application body.  Its SHA-256
    digest names the request in every reply and certificate.  Raises
    [Invalid_argument] on a negative client or an empty nonce (the nonce
    keys execution dedup, so emptiness would collapse a client's
    requests onto one dedup slot). *)

val decode_svc_request : string -> (int * string * string) option
(** Inverse of {!encode_svc_request} ([(client, nonce, body)]); [None]
    on an empty nonce. *)

val encode_svc_reply :
  fast:bool ->
  req_digest:string ->
  server:int ->
  response:string ->
  share:string ->
  string
(** Service reply frame (magic ["SVR1"]): one server's partial answer —
    a kind byte (ordered / fast-path query), the request digest, the
    answering server, the response bytes, and its serialized
    threshold-signature share.  Raises [Invalid_argument] on a negative
    server. *)

val decode_svc_reply : string -> (bool * string * int * string * string) option
(** Inverse of {!encode_svc_reply}
    ([(fast, req_digest, server, response, share)]). *)

val encode_reply_cert :
  fast:bool -> req_digest:string -> response:string -> cert:string -> string
(** Reply-certificate frame (magic ["SVC1"]): the transferable form of
    an assembled reply — kind byte, request digest, agreed response, and
    the serialized combined service signature.  Length prefixes bind the
    signature to exactly this (digest, response) pair. *)

val decode_reply_cert : string -> (bool * string * string * string) option
(** Inverse of {!encode_reply_cert} ([(fast, req_digest, response, cert)]). *)

val encode_link_frame : string Link.frame -> string
(** Byte-transport encoding of a reliable-link frame: magic ["SLF1"], a
    kind byte (RAW / DATA / ACK), then kind-specific u64 fields and
    payload bytes.  Deterministic: equal frames encode equally. *)

val decode_link_frame : string -> string Link.frame option
(** Inverse of {!encode_link_frame}; [None] on a DATA sequence number
    below 1 or a non-canonical ACK selective set (entries must be
    strictly ascending and above the cumulative watermark). *)

val encode_reshare_pkg :
  Schnorr_group.params -> Proactive.reshare_package -> string
(** Epoch reshare-package frame (magic ["SER1"]): the dealer, then per
    owned old leaf a fresh target-scheme sharing (u64 leaf + u64 party +
    exponent per subshare) with its per-leaf commitment keys.  Exponents
    are fixed-width canonical big-endian; elements are fixed-width group
    members.  Raises [Invalid_argument] on negative indices. *)

val decode_reshare_pkg :
  Schnorr_group.params -> string -> Proactive.reshare_package option
(** Inverse of {!encode_reshare_pkg}; [None] on an exponent at or above
    the group order or a key outside the subgroup. *)

val encode_epoch_adv :
  epoch:int ->
  target:(int * Monotone_formula.t) option ->
  pkgs:string list ->
  string
(** Epoch-advance statement body (magic ["SEA1"]): the epoch being
    opened, the target access structure ([n] and its monotone formula;
    absent when the reshare targets the current structure, i.e. a
    proactive refresh), and the agreed package frames as
    opaque length-prefixed blobs.  Its hash is what the advance
    certificate signs, so the frame is canonical byte for byte.  Raises
    [Invalid_argument] on a negative epoch, [n < 1], a malformed
    formula gate or gates nested more than [Pset.max_parties] deep. *)

val decode_epoch_adv :
  string -> (int * (int * Monotone_formula.t) option * string list) option
(** Inverse of {!encode_epoch_adv} ([(epoch, target, pkgs)]); [None] on
    [n < 1], a threshold gate with [k < 1] or [k] above its child count,
    or gates nested more than [Pset.max_parties] deep. *)

val encode_epoch_cert : body:string -> cert:string -> string
(** Certified epoch advance (magic ["SEC1"]): the ["SEA1"] body paired
    with the serialized combined service signature over its hash — the
    self-certifying form carried through the total order and replayed to
    catching-up replicas. *)

val decode_epoch_cert : string -> (string * string) option
(** Inverse of {!encode_epoch_cert} ([(body, cert)]). *)

val is_epoch_cert : string -> bool
(** Whether a payload carries the ["SEC1"] magic: a cheap peek that
    routes a delivered payload, not a decode. *)
