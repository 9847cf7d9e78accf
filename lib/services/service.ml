(* Trusted-service replication engine and client protocol (paper,
   Section 5).

   A trusted application is a deterministic state machine replicated on
   all servers.  Client requests are delivered by atomic broadcast
   (plain services) or secure causal atomic broadcast (services whose
   requests must stay confidential until ordered, like the notary); each
   server executes the agreed sequence and returns a partial answer
   containing a threshold-signature share, so the client assembles a
   single service signature under the service's one public key — clients
   never need to know individual servers.

   A client sends its request to all servers (sending to more than t is
   required so corrupted servers cannot simply swallow it) and waits for
   matching answers from a set that surely contains an honest server,
   combining signature shares until the service signature verifies.  The
   assembled (digest, response, signature) triple is a *reply
   certificate*: transferable evidence of the service's answer that any
   third party can check against the service public key.

   Read-only requests additionally have a fast path that skips agreement
   entirely: the client sends a [Query] to every replica, each replica
   answers directly from its current state with a share over a distinct
   statement domain, and the client accepts on t+1 matching answers.
   The two domains never mix — a fast certificate is honest evidence
   that some honest replica answered this at one of its serialized
   states, but it asserts nothing about ordering, which is exactly why
   replicas refuse the fast path for anything that mutates state. *)

module AS = Adversary_structure

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
  io : msg Proto_io.t;  (* replies go out on its unsequenced send *)
  mutable engine : engine option;
  execute : string -> string;  (* the replicated application *)
  read_only : string -> bool;  (* fast-path admission predicate *)
  mutable ordered : int;  (* well-formed ordered requests seen *)
  mutable executed : int;  (* requests that reached the state machine *)
  mutable malformed : int;  (* ordered payloads that failed to parse *)
  seen : (int * string, string) Hashtbl.t;
      (* (client, nonce) -> cached response: executed-request dedup *)
  mutable dup_suppressed : int;
  mutable queries_served : int;
  mutable queries_refused : int;
}

let svc_labels = [ ("layer", "service") ]

(* Ordered-and-decrypted request: the strict SVQ1 frame (client slot,
   nonce, body).  The nonce makes retries and repeated queries distinct
   payloads for the atomic broadcast (which de-duplicates by content)
   and keys execution dedup, so the decoder rejects an empty nonce: with
   one, every request of a client would collapse onto a single dedup
   slot and all but the first would be answered from the cache. *)
let parse_request (payload : string) : (int * string * string) option =
  Codec.decode_svc_request payload

let response_statement ~req_digest ~response =
  Ro.encode [ "service-response"; req_digest; response ]

(* Fast-path answers sign a distinct domain, so a direct (unordered)
   reply can never be passed off as an ordered one or vice versa. *)
let query_statement ~req_digest ~response =
  Ro.encode [ "service-query"; req_digest; response ]

let reply_statement ~fast ~req_digest ~response =
  if fast then query_statement ~req_digest ~response
  else response_statement ~req_digest ~response

(* ---------------- reply certificates -------------------------------- *)

type reply_cert = {
  rc_fast : bool;  (* assembled on the fast path (query domain) *)
  rc_req_digest : string;  (* SHA-256 of the ordered plaintext frame *)
  rc_response : string;
  rc_sig : Keyring.service_signature;
}

let verify_reply_cert kr (rc : reply_cert) : bool =
  Keyring.service_verify kr
    (reply_statement ~fast:rc.rc_fast ~req_digest:rc.rc_req_digest
       ~response:rc.rc_response)
    rc.rc_sig

let reply_cert_to_bytes kr (rc : reply_cert) : string =
  Codec.encode_reply_cert ~fast:rc.rc_fast ~req_digest:rc.rc_req_digest
    ~response:rc.rc_response
    ~cert:(Keyring.service_signature_to_bytes kr rc.rc_sig)

let reply_cert_of_bytes kr (b : string) : reply_cert option =
  match Codec.decode_reply_cert b with
  | None -> None
  | Some (fast, req_digest, response, certb) ->
    Option.map
      (fun s ->
        { rc_fast = fast;
          rc_req_digest = req_digest;
          rc_response = response;
          rc_sig = s })
      (Keyring.service_signature_of_bytes kr certb)

(* ---------------- server side --------------------------------------- *)

(* The client combines before it looks at any share, so the reply
   carries a bare share: no proof to build. *)
let send_reply (t : t) ~fast ~client ~req_digest ~response =
  let { Proto_io.me; keyring; _ } = t.io in
  let share =
    Keyring.service_reply_share keyring ~party:me
      (reply_statement ~fast ~req_digest ~response)
  in
  t.io.Proto_io.unsequenced client
    (Response
       (Codec.encode_svc_reply ~fast ~req_digest ~server:me ~response
          ~share:(Keyring.sig_share_to_bytes keyring share)))

(* The atomic broadcast deduplicates by *content*, which is not the same
   thing as deduplicating by *request*: under the confidential engine a
   corrupted server can re-encrypt a captured request under fresh TDH2
   randomness, and the distinct ciphertext sails through the content
   check only to decrypt to the same (client, nonce, body); under drop
   chaos an honest client resend can itself be ordered twice.  Executing
   again is the replay the nonce exists to prevent, so execution dedups
   on (client, nonce): a duplicate is counted ([service_dup_suppressed]),
   skips the state machine, and re-answers from the cached response — an
   honest client retry still gets its signature shares. *)
let on_ordered (t : t) (payload : string) =
  let obs = t.io.Proto_io.obs in
  match parse_request payload with
  | None ->
    (* malformed request (bad frame or empty nonce): a no-op *)
    t.malformed <- t.malformed + 1;
    if Obs.active obs then Obs.incr obs ~labels:svc_labels "service_malformed"
  | Some (client, nonce, body) ->
    t.ordered <- t.ordered + 1;
    let response =
      match Hashtbl.find_opt t.seen (client, nonce) with
      | Some cached ->
        t.dup_suppressed <- t.dup_suppressed + 1;
        if Obs.active obs then
          Obs.incr obs ~labels:svc_labels "service_dup_suppressed";
        cached
      | None ->
        let response = t.execute body in
        t.executed <- t.executed + 1;
        Hashtbl.replace t.seen (client, nonce) response;
        response
    in
    send_reply t ~fast:false ~client ~req_digest:(Sha256.digest payload)
      ~response

(* Feed one ordered request directly into the execution path — what the
   engine's deliver callback does; exposed for dedup tests. *)
let deliver_ordered = on_ordered

(* Fast path: answer a read-only query directly from current state,
   skipping agreement, dedup and the execution counter (queries never
   mutate, so replays are harmless).  The admission predicate is the
   soundness gate — anything it rejects must take the ordered path. *)
let on_query (t : t) ~client body =
  let obs = t.io.Proto_io.obs in
  let refused () =
    t.queries_refused <- t.queries_refused + 1;
    if Obs.active obs then
      Obs.incr obs ~labels:svc_labels "service_query_refused"
  in
  match Codec.decode_svc_request body with
  | Some (qc, _nonce, inner) when qc = client && t.read_only inner ->
    let response = t.execute inner in
    t.queries_served <- t.queries_served + 1;
    if Obs.active obs then
      Obs.incr obs ~labels:svc_labels "service_query_served";
    send_reply t ~fast:true ~client ~req_digest:(Sha256.digest body)
      ~response
  | Some _ | None -> refused ()

let handle (t : t) ~src msg =
  match (msg, t.engine) with
  | Engine (Abc_m m), Some (Abc_e abc) -> Abc.handle abc ~src m
  | Engine (Scabc_m m), Some (Scabc_e sc) -> Scabc.handle sc ~src m
  | Engine (Recov_m m), Some (Recov_e r) -> Recovery.handle r ~src m
  | Request { client = _; body }, Some (Abc_e abc) ->
    (* Plain service: the body is the client's SVQ1 frame; order as-is. *)
    Abc.broadcast abc body
  | Request { client = _; body }, Some (Recov_e r) ->
    Recovery.submit r body
  | Request { client = _; body }, Some (Scabc_e sc) ->
    (* Confidential service: the body is a TDH2 ciphertext of the
       frame; order it as-is. *)
    Scabc.broadcast sc body
  | Query { client; body }, Some _ -> on_query t ~client body
  | Response _, _ -> ()  (* servers ignore stray client-bound answers *)
  | (Engine _ | Request _ | Query _), _ -> ()

(* ---------------- deployment ---------------------------------------- *)

type deployment = (msg, t) Stack.deployment

let nodes = Stack.nodes

let msg_size kr = function
  | Engine (Abc_m m) -> 8 + Abc.msg_size kr m
  | Engine (Scabc_m m) -> 8 + Scabc.msg_size kr m
  | Engine (Recov_m m) -> 8 + Recovery.msg_size kr m
  | Request { body; _ } | Query { body; _ } -> 16 + String.length body
  | Response frame -> 8 + String.length frame

(* The engine's broadcast instance, for checkpoint/GC introspection
   (log peak, retired rounds) in campaigns and tests. *)
let abc_of (t : t) : Abc.t option =
  match t.engine with
  | Some (Abc_e a) -> Some a
  | Some (Recov_e r) -> Some (Recovery.abc r)
  | Some (Scabc_e sc) -> Some (Scabc.abc sc)
  | None -> None

let recovery_of (t : t) : Recovery.t option =
  match t.engine with Some (Recov_e r) -> Some r | _ -> None

(* One replica per party: the application, its dedup state and the
   ordering engine, whose traffic is embedded in the service's own wire
   type.  Client-bound responses travel on the io's unsequenced send —
   clients run no link machinery; their loss recovery is request resend
   against execution dedup. *)
let deploy ?wrap ?policy ?link ?(ckpt_interval = 0)
    ?(read_only = fun _ -> false) ~(sim : msg Link.frame Sim.t)
    ~(keyring : Keyring.t) ~(mode : mode)
    ~(make_app : unit -> string -> string) () : deployment =
  if ckpt_interval > 0 && mode = Confidential then
    invalid_arg "Service.deploy: checkpointing requires the Plain engine";
  let make _ (io : msg Proto_io.t) =
    let node =
      { io;
        engine = None;
        execute = make_app ();
        read_only;
        ordered = 0;
        executed = 0;
        malformed = 0;
        seen = Hashtbl.create 16;
        dup_suppressed = 0;
        queries_served = 0;
        queries_refused = 0 }
    in
    let deliver p = on_ordered node p in
    node.engine <-
      Some
        (match mode with
        | Plain when ckpt_interval > 0 ->
          Recov_e
            (Recovery.create ?policy ~interval:ckpt_interval
               ~io:
                 (Proto_io.embed ~layer:"recov"
                    ~bytes:(Recovery.msg_size keyring) io
                    ~wrap:(fun m -> Engine (Recov_m m)))
               ~tag:"service" ~deliver ())
        | Plain ->
          Abc_e
            (Abc.create ?policy
               ~io:
                 (Proto_io.embed ~layer:"abc" ~bytes:(Abc.msg_size keyring)
                    io
                    ~wrap:(fun m -> Engine (Abc_m m)))
               ~tag:"service" ~deliver ())
        | Confidential ->
          Scabc_e
            (Scabc.create ?policy
               ~io:
                 (Proto_io.embed ~layer:"scabc"
                    ~bytes:(Scabc.msg_size keyring) io
                    ~wrap:(fun m -> Engine (Scabc_m m)))
               ~tag:"service"
               ~deliver:(fun ~label:_ p -> deliver p)
               ()));
    node
  in
  let d =
    Stack.attach ?wrap ?link ~sim ~keyring ~layer:"service"
      ~bytes:(msg_size keyring) ~make ~handle ()
  in
  Stack.probe_abc d (fun nd -> Option.get (abc_of nd));
  d

(* The revived party's application state restarts from genesis and is
   rebuilt by replaying the delivered suffix during catch-up; until it
   observes enough traffic its direct answers may lag, which the client
   protocol absorbs — certificates only ever need t+1 matching answers,
   never this replica's. *)
let revive d party =
  let node = Stack.revive d party in
  Option.iter Recovery.start_catch_up (recovery_of node);
  node

(* ---------------- client side -------------------------------------- *)

module Client = struct
  type phase = Fast | Ordered

  type pending = {
    p_wrapped : string;  (* SVQ1 frame: the ordered plaintext *)
    p_mode : mode;  (* engine mode for the ordered path *)
    p_accept_fast : bool;  (* query-originated: fast replies admissible *)
    mutable p_phase : phase;
    mutable p_on_wire : string;  (* current Request body (ciphertext if
                                    Confidential); "" while Fast *)
    mutable p_resends : int;
    p_started : float;  (* virtual submission time, for latency *)
    mutable p_groups :
      ((bool * string) * (int * Keyring.sig_share option) list) list;
        (* per (kind, response): each server's share, [None] once found
           bad *)
  }

  type c = {
    slot : int;  (* this client's simulator slot (>= n) *)
    keyring : Keyring.t;
    rng : Prng.t;
    io : msg Stack.client_io;
    max_resends : int;
    fast_attempts : int;  (* query sends before falling back *)
    requests : (string, pending * (reply_cert -> unit)) Hashtbl.t;
    mutable submitted : int;
    mutable completed : int;
    mutable retries : int;
    mutable fastpath_hits : int;
    mutable fallbacks : int;
    mutable timeouts : int;
    mutable rejected_replies : int;  (* malformed / forged / bad share *)
  }

  let obs_incr c name =
    if Obs.active c.io.Stack.c_obs then
      Obs.incr c.io.Stack.c_obs ~labels:svc_labels name

  let inflight c = Hashtbl.length c.requests
  let submitted c = c.submitted
  let completed c = c.completed
  let retries c = c.retries
  let fastpath_hits c = c.fastpath_hits
  let fallbacks c = c.fallbacks
  let timeouts c = c.timeouts
  let cert_failures (_ : c) = 0
  let rejected_replies c = c.rejected_replies

  let reject c = c.rejected_replies <- c.rejected_replies + 1

  (* One server's partial answer: decode the strict frame, bind it to
     the transport source and the share's signer field (a corrupted
     server cannot speak in another's name), then try to assemble the
     certificate from the answer's response group (no share proof is
     ever checked: a failed combination searches for a good subset).
     Completion removes the request — pending state is bounded by the
     number of requests in flight, not by history. *)
  let on_reply (c : c) ~src frame =
    match Codec.decode_svc_reply frame with
    | None ->
      reject c;
      obs_incr c "svc_reply_rejected"
    | Some (fast, req_digest, server, response, share_b) -> (
      if src <> server || server < 0 || server >= c.io.Stack.c_n then begin
        reject c;
        obs_incr c "svc_reply_rejected"
      end
      else
        match Hashtbl.find_opt c.requests req_digest with
        | None -> ()  (* already assembled, timed out, or never ours *)
        | Some (p, callback) ->
          if fast && not p.p_accept_fast then begin
            (* An ordered submission must complete with an ordered
               certificate: fast shares for it can only exist through
               injected queries, and accepting them would silently
               downgrade a write to an unserialized read. *)
            reject c;
            obs_incr c "svc_reply_rejected"
          end
          else begin
            let stmt = reply_statement ~fast ~req_digest ~response in
            match Keyring.sig_share_of_bytes c.keyring share_b with
            | Some share when Keyring.sig_share_signer share = server -> (
              let key = (fast, response) in
              let group =
                match List.assoc_opt key p.p_groups with
                | Some g -> g
                | None -> []
              in
              if not (List.mem_assoc server group) then
                let group = (server, Some share) :: group in
                (* Combine first, oldest shares first: a share that
                   made a combination fail stays among the first k,
                   so the next attempt searches the subsets and names
                   it.  A share found bad stays in the group as
                   [None], so its server cannot re-enter it. *)
                let shares = List.filter_map snd (List.rev group) in
                let combined, bad =
                  Keyring.service_combine_attributed c.keyring stmt shares
                in
                List.iter
                  (fun _ ->
                    reject c;
                    obs_incr c "svc_reply_rejected")
                  bad;
                p.p_groups <-
                  ( key,
                    List.map
                      (fun (s, sh) -> if List.mem s bad then (s, None) else (s, sh))
                      group )
                  :: List.remove_assoc key p.p_groups;
                (* A combined signature already passes
                   [Keyring.service_verify]: accept it as it is. *)
                match combined with
                | None -> ()
                | Some service_sig ->
                  Hashtbl.remove c.requests req_digest;
                  c.completed <- c.completed + 1;
                  obs_incr c "svc_cert_assembled";
                  if fast then begin
                    c.fastpath_hits <- c.fastpath_hits + 1;
                    obs_incr c "svc_fastpath_hits"
                  end;
                  if Obs.active c.io.Stack.c_obs then
                    Obs.observe c.io.Stack.c_obs ~labels:svc_labels
                      "svc_reply_latency"
                      (c.io.Stack.c_clock () -. p.p_started);
                  callback
                    { rc_fast = fast;
                      rc_req_digest = req_digest;
                      rc_response = response;
                      rc_sig = service_sig })
            | Some _ | None ->
              reject c;
              obs_incr c "svc_reply_rejected"
          end)

  (* The resend period is sized to the simulator's WAN model (10-100
     virtual ms per hop): a multi-round agreement takes virtual seconds,
     so the period must be comfortably above one ordering latency or
     every request burns its budget before the first answer lands. *)
  let resend_after = 1_500.

  let create ?(max_resends = 25) ?(fast_attempts = 2)
      ~(sim : msg Link.frame Sim.t) ~(keyring : Keyring.t) ~slot ~seed () :
      c =
    (* The endpoint's handler closes over [c], which holds the
       endpoint: tie the knot through a reference. *)
    let self = ref None in
    let io =
      Stack.client_endpoint ~sim ~slot
        ~handle:(fun ~src m ->
          match (m, !self) with
          | Response f, Some c -> on_reply c ~src f
          | _ -> ())
        ()
    in
    let c =
      {
        slot;
        keyring;
        rng = Prng.create ~seed;
        io;
        max_resends;
        fast_attempts;
        requests = Hashtbl.create 16;
        submitted = 0;
        completed = 0;
        retries = 0;
        fastpath_hits = 0;
        fallbacks = 0;
        timeouts = 0;
        rejected_replies = 0;
      }
    in
    self := Some c;
    c

  let ordered_wire c (p : pending) =
    if p.p_on_wire = "" then
      p.p_on_wire <-
        (match p.p_mode with
        | Plain -> p.p_wrapped
        | Confidential ->
          Scabc.encrypt_request c.keyring c.rng
            ~label:(string_of_int c.slot) p.p_wrapped);
    p.p_on_wire

  let send_current c (p : pending) =
    match p.p_phase with
    | Fast ->
      c.io.Stack.c_send_all (Query { client = c.slot; body = p.p_wrapped })
    | Ordered ->
      c.io.Stack.c_send_all
        (Request { client = c.slot; body = ordered_wire c p })

  (* Timer-driven resend: same nonce, so a resend that gets ordered
     twice is execution-deduped server-side and re-answered from the
     cache.  A query that exhausts its fast attempts falls back to the
     ordered path (same frame, same digest — late fast answers can still
     complete it).  A request that exhausts [max_resends] is abandoned:
     the entry is dropped so client memory stays bounded even against a
     dead service. *)
  let rec arm c req_digest =
    c.io.Stack.c_timer ~delay:resend_after (fun () ->
        match Hashtbl.find_opt c.requests req_digest with
        | None -> ()
        | Some (p, _) ->
          if p.p_resends + 1 >= c.max_resends then begin
            Hashtbl.remove c.requests req_digest;
            c.timeouts <- c.timeouts + 1;
            obs_incr c "svc_timeouts"
          end
          else begin
            p.p_resends <- p.p_resends + 1;
            c.retries <- c.retries + 1;
            obs_incr c "svc_retries";
            (if p.p_phase = Fast && p.p_resends >= c.fast_attempts then begin
               p.p_phase <- Ordered;
               c.fallbacks <- c.fallbacks + 1;
               obs_incr c "svc_fastpath_fallback"
             end);
            send_current c p;
            arm c req_digest
          end)

  let submit c ~mode ~accept_fast ~phase body callback =
    let nonce = Prng.bytes c.rng 8 in
    let wrapped =
      Codec.encode_svc_request ~client:c.slot ~nonce ~body
    in
    (* Servers hash the *ordered plaintext*, which in both modes (and on
       both paths) is the wrapped frame. *)
    let req_digest = Sha256.digest wrapped in
    let p =
      {
        p_wrapped = wrapped;
        p_mode = mode;
        p_accept_fast = accept_fast;
        p_phase = phase;
        p_on_wire = "";
        p_resends = 0;
        p_started = c.io.Stack.c_clock ();
        p_groups = [];
      }
    in
    Hashtbl.replace c.requests req_digest (p, callback);
    c.submitted <- c.submitted + 1;
    obs_incr c "svc_requests";
    send_current c p;
    arm c req_digest

  (* Send [body] to every server for ordering; [callback] fires once
     with the assembled reply certificate. *)
  let request (c : c) ~(mode : mode) (body : string)
      (callback : reply_cert -> unit) : unit =
    submit c ~mode ~accept_fast:false ~phase:Ordered body callback

  (* Read-only fast path: query every replica directly; accepted on t+1
     matching signed answers without a broadcast round.  Falls back to
     the ordered path (under [mode]) if the fast phase stalls — replicas
     refuse non-read-only bodies, disagreeing replicas never form a
     group, and drop chaos can eat the direct exchange. *)
  let query (c : c) ~(mode : mode) (body : string)
      (callback : reply_cert -> unit) : unit =
    submit c ~mode ~accept_fast:true ~phase:Fast body callback
end
