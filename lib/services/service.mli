(** Trusted-service replication engine and client protocol (paper,
    Section 5).

    Deterministic state machines replicated on all servers; requests are
    delivered by atomic broadcast ([Plain]) or secure causal atomic
    broadcast ([Confidential]); every server returns a partial answer
    carrying a threshold-signature share, which the client assembles into
    one service signature under the service's single public key — a
    transferable {!reply_cert}.  Read-only queries have a fast path that
    skips agreement: replicas answer directly under a distinct statement
    domain and the client accepts on t+1 matching signed answers. *)

type mode = Plain | Confidential

type engine_msg =
  | Abc_m of Abc.msg
  | Scabc_m of Scabc.msg
  | Recov_m of Recovery.msg

type msg =
  | Engine of engine_msg
  | Request of { client : int; body : string }
      (** body: the SVQ1 request frame ([Plain]) or its TDH2 ciphertext
          ([Confidential]) *)
  | Query of { client : int; body : string }
      (** read-only fast path; body: an SVQ1 frame, always plaintext *)
  | Response of string  (** an SVR1 reply frame *)

type engine = Abc_e of Abc.t | Scabc_e of Scabc.t | Recov_e of Recovery.t

type t = {
  io : msg Proto_io.t;
      (** the replica's transport; responses to client slots go out on
          its {!Proto_io.field-unsequenced} send *)
  mutable engine : engine option;
  execute : string -> string;
  read_only : string -> bool;
  mutable ordered : int;
  mutable executed : int;
  mutable malformed : int;
  seen : (int * string, string) Hashtbl.t;
  mutable dup_suppressed : int;
  mutable queries_served : int;
  mutable queries_refused : int;
}

val parse_request : string -> (int * string * string) option
(** Decode an ordered SVQ1 request frame into [(client, nonce, body)].
    Rejects (returns [None] for) an empty nonce: the nonce keys
    execution dedup, so an empty one would collapse every request of a
    client onto a single dedup slot and all but the first would be
    answered from the cache. *)

val deliver_ordered : t -> string -> unit
(** Execute one ordered request, exactly as the engine's deliver
    callback does.  Requests are deduplicated by (client, nonce): a
    replay — e.g. a captured confidential request re-encrypted under
    fresh randomness, which defeats the broadcast's content dedup, or an
    honest resend ordered twice — skips the state machine, bumps
    [dup_suppressed] (counter [service_dup_suppressed], layer
    ["service"]) and re-answers from the cached response. *)

val response_statement : req_digest:string -> response:string -> string
(** The statement an ordered-path service signature covers. *)

val query_statement : req_digest:string -> response:string -> string
(** The statement a fast-path service signature covers.  Distinct from
    {!response_statement}, so neither kind of certificate can be passed
    off as the other. *)

val reply_statement :
  fast:bool -> req_digest:string -> response:string -> string

(** {2 Reply certificates} *)

type reply_cert = {
  rc_fast : bool;  (** assembled on the fast path (query domain) *)
  rc_req_digest : string;  (** SHA-256 of the ordered plaintext frame *)
  rc_response : string;
  rc_sig : Keyring.service_signature;
}
(** Transferable evidence of the service's answer: any third party
    holding the service public key can check it without knowing any
    individual server.  An ordered certificate ([rc_fast = false])
    asserts that the request was executed at its serialization point; a
    fast certificate asserts only that some honest replica answered this
    from one of its serialized states. *)

val verify_reply_cert : Keyring.t -> reply_cert -> bool

val reply_cert_to_bytes : Keyring.t -> reply_cert -> string
(** Strict SVC1 byte form, for handing to third parties. *)

val reply_cert_of_bytes : Keyring.t -> string -> reply_cert option
(** Inverse of {!reply_cert_to_bytes}; decoding confers no authority
    until {!verify_reply_cert} accepts the result. *)

val handle : t -> src:int -> msg -> unit

(** {2 Deployment} *)

type deployment

val deploy :
  ?wrap:(int -> msg Sim.handler -> msg Sim.handler) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  ?ckpt_interval:int ->
  ?read_only:(string -> bool) ->
  sim:msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  mode:mode ->
  make_app:(unit -> string -> string) ->
  unit ->
  deployment
(** One replica per server slot; [make_app ()] builds a fresh
    per-replica state machine.  [read_only] admits request bodies to the
    fast path (default: none).  [ckpt_interval > 0] (Plain mode only;
    raises [Invalid_argument] under [Confidential]) wraps the engine in
    {!Recovery}: certified checkpoints every that many rounds truncate
    the delivered log, bounding memory under sustained load, and give
    revived replicas the certified state-transfer path.  Replicas are
    attached through {!Stack.attach}, which also installs the ABC stall
    probe over {!abc_of}.  [?link] interposes an ARQ endpoint per server
    for engine traffic; client-facing traffic always travels Raw on the
    io's unsequenced send (clients resend instead).  [?wrap] is the
    Byzantine injection hook of {!Stack.attach}. *)

val nodes : deployment -> t array

val revive : deployment -> int -> t
(** Recover a crashed server with fresh protocol and application state
    ({!Stack.revive}) and, under a checkpointing engine, start certified
    catch-up
    ({!Recovery.start_catch_up}).  Application state is rebuilt by
    replaying the delivered suffix; until the replica catches up its
    direct answers may lag, which clients absorb — a certificate needs
    t+1 matching answers, never a specific replica's. *)

val abc_of : t -> Abc.t option
(** The engine's atomic-broadcast instance (through {!Recovery} or
    {!Scabc} if applicable), for checkpoint/GC introspection. *)

val recovery_of : t -> Recovery.t option

val msg_size : Keyring.t -> msg -> int

(** {2 Client} *)

(** Send a request to every server (more than t, so corrupted servers
    cannot swallow it) and assemble matching answers into a verified
    {!reply_cert}.  Loss recovery is protocol-level: a virtual-time
    timer resends with the same nonce (safe against re-execution by
    server-side dedup) until the certificate assembles or the attempt
    budget runs out. *)
module Client : sig
  type c

  val create :
    ?max_resends:int ->
    ?fast_attempts:int ->
    sim:msg Link.frame Sim.t ->
    keyring:Keyring.t ->
    slot:int ->
    seed:int ->
    unit ->
    c
  (** Attach a client to simulator slot [slot] (>= n).  A request is
      resent every 1,500 units of virtual time; [max_resends] bounds total
      sends per request (the request is abandoned and counted as a
      timeout after that, keeping pending state bounded even against a
      dead service); [fast_attempts] is how many query sends precede
      fallback to the ordered path. *)

  val request : c -> mode:mode -> string -> (reply_cert -> unit) -> unit
  (** Submit [body] for ordering; the callback fires once with the
      assembled ordered reply certificate. *)

  val query : c -> mode:mode -> string -> (reply_cert -> unit) -> unit
  (** Read-only fast path: query every replica directly; accepted on
      t+1 matching signed answers without a broadcast round.  Falls
      back to an ordered request (under [mode]) if the fast phase
      stalls — the callback then fires with an ordered certificate. *)

  val inflight : c -> int
  val submitted : c -> int
  val completed : c -> int
  val retries : c -> int
  val fastpath_hits : c -> int
  val fallbacks : c -> int
  val timeouts : c -> int
  val cert_failures : c -> int
  (** Always [0]: the client accepts exactly what
      {!Keyring.service_combine_attributed} returns, which already
      passes {!Keyring.service_verify}, so no assembled certificate can
      fail.  Kept for the end-to-end benchmark's correctness gate,
      which sums it; the svc campaign re-verifies every accepted
      certificate from outside ({!verify_reply_cert}). *)

  val rejected_replies : c -> int
end
