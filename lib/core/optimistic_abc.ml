(* Optimistic atomic broadcast (paper, Section 6, "Optimistic
   Protocols"; after Kursawe & Shoup, "Optimistic asynchronous atomic
   broadcast").

   Fast path: a fixed sequencer orders payloads by consistent broadcast,
   one instance per sequence number — O(n) messages per payload and no
   heavyweight agreement.  Every party broadcasts *cumulative*
   acknowledgements ("my contiguous c-delivered prefix reaches s"), and a
   payload is delivered once a big-quorum acknowledgement certificate for
   its prefix exists.

   Fallback: parties that see no progress while work is pending complain
   (a quorum-certificate share, amplified like a Bracha READY); once the
   complainers form a two-cover set, everyone switches: each party signs
   a STATE message carrying its delivered prefix d and the prefix's
   acknowledgement certificate, a big-quorum of states is proposed to one
   validated Byzantine agreement, and the decided maximum D becomes the
   final length of the fast path.  Because fast delivery of s needs a
   big-quorum of *cumulative* acks, any honest-delivered s is reflected
   in at least one honest state of every big-quorum, so D covers every
   honest delivery — switching can never roll back.  Missing payloads
   up to D are fetched with their transferable consistent-broadcast
   certificates.  Everything else is re-ordered by the randomized atomic
   broadcast, which is live under any schedule.

   Timing only affects liveness of the fast path: the complaint trigger
   is a virtual-time timer (or, without a timer hook, a count of handled
   messages); safety is completely independent of it — exactly the
   optimistic-protocol design point of Section 6 ("one has to make sure
   that safety is never violated"). *)

module AS = Adversary_structure

type state_report = {
  st_party : int;
  st_prefix : int;  (* delivered fast-path prefix: seqs 0..st_prefix-1 *)
  st_cert : Keyring.cert option;  (* ack certificate, None iff prefix = 0 *)
  st_sig : Schnorr_sig.signature;
}

type msg =
  | Submit of string  (* payload relay *)
  | Seq_cbc of int * Cbc.msg  (* sequencer's CBC for one slot *)
  | Ack of int * Keyring.cert_share  (* cumulative prefix acknowledgement *)
  | Complain of Keyring.cert_share
  | State of state_report
  | Recovery_vba of Vba.msg
  | Fetch of int
  | Fetch_reply of int * string * Keyring.cert
  | Fallback_abc of Abc.msg

type mode = Fast | Switching | Fallback

type t = {
  io : msg Proto_io.t;
  tag : string;
  patience : int;
  timeout : float;
  abc_policy : Abc.policy option;  (* batching policy of the fallback *)
  deliver : string -> unit;
  (* fast path *)
  cbcs : (int, Cbc.t) Hashtbl.t;  (* seq -> instance *)
  cdelivered : (int, string * Keyring.cert) Hashtbl.t;
  mutable acked_prefix : int;  (* largest cumulative ack we sent *)
  ack_shares : (int, (int * Keyring.cert_share) list ref) Hashtbl.t;
  ack_certs : (int, Keyring.cert) Hashtbl.t;
  mutable fast_delivered : int;  (* delivered seqs 0..fast_delivered-1 *)
  mutable next_seq : int;  (* sequencer: next slot *)
  (* submissions *)
  mutable pending : string list;
  delivered_digests : (string, unit) Hashtbl.t;
  mutable delivered_log : string list;
  (* complaint / switch *)
  mutable mode : mode;
  mutable complained : bool;
  mutable complain_shares : (int * Keyring.cert_share) list;
  mutable idle_ticks : int;
  mutable timer_armed : bool;
  mutable progress_epoch : int;
  (* recovery *)
  mutable states : state_report list;
  mutable vba : Vba.t option;
  mutable proposed : bool;  (* our one recovery proposal is out *)
  mutable final_prefix : int option;
  mutable fetched : (int * string * Keyring.cert) list;
  (* fallback *)
  mutable abc : Abc.t option;
}

(* The fast path's fixed sequencer. *)
let sequencer = 0

let digest = Sha256.digest
let ack_stmt t s = Ro.encode [ "opt-ack"; t.tag; string_of_int s ]
let complain_stmt t = Ro.encode [ "opt-complain"; t.tag ]
let state_stmt t d = Ro.encode [ "opt-state"; t.tag; string_of_int d ]
let cbc_tag t seq = t.tag ^ "/slot/" ^ string_of_int seq

let mode t = t.mode
let fast_delivered_count t = t.fast_delivered

(* ---------- construction -------------------------------------------- *)

let rec create ~(io : msg Proto_io.t) ~tag ?(patience = 200)
    ?(timeout = 1500.0) ?abc_policy ~deliver () : t =
  { io;
    tag;
    patience;
    timeout;
    abc_policy;
    deliver;
    cbcs = Hashtbl.create 8;
    cdelivered = Hashtbl.create 8;
    acked_prefix = 0;
    ack_shares = Hashtbl.create 8;
    ack_certs = Hashtbl.create 8;
    fast_delivered = 0;
    next_seq = 0;
    pending = [];
    delivered_digests = Hashtbl.create 16;
    delivered_log = [];
    mode = Fast;
    complained = false;
    complain_shares = [];
    idle_ticks = 0;
    timer_armed = false;
    progress_epoch = 0;
    states = [];
    vba = None;
    proposed = false;
    final_prefix = None;
    fetched = [];
    abc = None }

and cbc_of t seq : Cbc.t =
  match Hashtbl.find_opt t.cbcs seq with
  | Some c -> c
  | None ->
    let c =
      Cbc.create
        ~io:
          (Proto_io.embed ~layer:"cbc"
             ~bytes:(Cbc.msg_size t.io.Proto_io.keyring) t.io
             ~wrap:(fun m -> Seq_cbc (seq, m)))
        ~tag:(cbc_tag t seq) ~sender:sequencer
        ~deliver:(fun payload cert -> on_cdeliver t seq payload cert)
        ()
    in
    Hashtbl.add t.cbcs seq c;
    c

and on_cdeliver t seq payload cert =
  if not (Hashtbl.mem t.cdelivered seq) then begin
    Hashtbl.replace t.cdelivered seq (payload, cert);
    advance_acks t;
    (* the certificate may have formed before this slot's payload *)
    try_fast_delivery t
  end

(* Cumulative acknowledgement: extend as far as the contiguous
   c-delivered prefix reaches. *)
and advance_acks t =
  if t.mode = Fast then begin
    let rec reach s = if Hashtbl.mem t.cdelivered s then reach (s + 1) else s in
    let prefix = reach 0 in
    (* one share per prefix value, so certificates form for every s *)
    while t.acked_prefix < prefix do
      t.acked_prefix <- t.acked_prefix + 1;
      let share = Proto_io.sign t.io (ack_stmt t t.acked_prefix) in
      t.io.Proto_io.broadcast (Ack (t.acked_prefix, share))
    done
  end

and ack_shares_of t s =
  match Hashtbl.find_opt t.ack_shares s with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.ack_shares s l;
    l

and try_fast_delivery t =
  if t.mode = Fast then begin
    (* deliver every seq below the largest certified prefix *)
    let best =
      Hashtbl.fold (fun s _ acc -> max s acc) t.ack_certs t.fast_delivered
    in
    while
      t.fast_delivered < best && Hashtbl.mem t.cdelivered t.fast_delivered
    do
      let payload, _ = Hashtbl.find t.cdelivered t.fast_delivered in
      t.fast_delivered <- t.fast_delivered + 1;
      t.idle_ticks <- 0;
      t.progress_epoch <- t.progress_epoch + 1;
      output t payload
    done
  end

and output t payload =
  let d = digest payload in
  if not (Hashtbl.mem t.delivered_digests d) then begin
    Hashtbl.replace t.delivered_digests d ();
    t.delivered_log <- payload :: t.delivered_log;
    t.pending <- List.filter (fun p -> digest p <> d) t.pending;
    t.deliver payload
  end

(* ---------- complaints and switching -------------------------------- *)

and send_complaint t =
  if not t.complained then begin
    t.complained <- true;
    let share = Proto_io.sign t.io (complain_stmt t) in
    t.io.Proto_io.broadcast (Complain share)
  end

and maybe_switch t =
  let complainers =
    List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty
      t.complain_shares
  in
  if AS.contains_honest (Proto_io.structure t.io) complainers then
    send_complaint t;
  if t.mode = Fast && AS.two_cover (Proto_io.structure t.io) complainers
  then begin
    t.mode <- Switching;
    (* Report the largest *certified* prefix we know (it dominates our own
       deliveries, which never outrun the certificates). *)
    let d = Hashtbl.fold (fun s _ acc -> max s acc) t.ack_certs 0 in
    let cert = Hashtbl.find_opt t.ack_certs d in
    let report =
      { st_party = t.io.Proto_io.me;
        st_prefix = d;
        st_cert = cert;
        st_sig = Proto_io.sign t.io (state_stmt t d) }
    in
    t.io.Proto_io.broadcast (State report)
  end

and state_valid t (r : state_report) : bool =
  r.st_party >= 0
  && r.st_party < Proto_io.n t.io
  && Proto_io.verify_signature t.io ~party:r.st_party
       (state_stmt t r.st_prefix) r.st_sig
  &&
  match (r.st_prefix, r.st_cert) with
  | 0, None -> true
  | d, Some cert when d > 0 ->
    Proto_io.verify_cert t.io (ack_stmt t d) cert
  | _, (Some _ | None) -> false

and proposal_of_states t (reports : state_report list) : string =
  Codec.encode
    (List.concat_map
       (fun r ->
         [ string_of_int r.st_party;
           string_of_int r.st_prefix;
           Schnorr_sig.to_bytes t.io.Proto_io.keyring.Keyring.group r.st_sig ])
       reports)

and decode_proposal t (s : string) : (int * int * Schnorr_sig.signature) list option =
  Wire.parse s (fun r ->
      Wire.until_end r (fun r ->
          let party = Wire.decimal r in
          let prefix = Wire.decimal r in
          let sg =
            Schnorr_sig.of_bytes t.io.Proto_io.keyring.Keyring.group (Wire.bytes r)
          in
          (party, prefix, Wire.get sg)))

(* External validity for the recovery agreement: a big-quorum of distinct
   parties, each with a valid signature on its claimed prefix.  The
   certificates themselves travel in the STATE messages; the signature
   pins the claim, and the decided prefix is the maximum claim — safety
   only needs the maximum to be at least every honest delivery, which
   holds because honest parties sign their true prefix and any big quorum
   contains an honest member of every delivery quorum. *)
and proposal_valid t (value : string) : bool =
  match decode_proposal t value with
  | None -> false
  | Some entries ->
    List.for_all (fun (p, _, _) -> p >= 0 && p < Proto_io.n t.io) entries
    &&
    let parties =
      List.fold_left (fun acc (p, _, _) -> Pset.add p acc) Pset.empty entries
    in
    List.length entries = Pset.card parties
    && Proto_io.big_quorum t.io parties
    && List.for_all
         (fun (p, d, sg) ->
           d >= 0
           && Proto_io.verify_signature t.io ~party:p (state_stmt t d) sg)
         entries

and vba_of t : Vba.t =
  match t.vba with
  | Some v -> v
  | None ->
    let v =
      Vba.create
        ~io:
          (Proto_io.embed ~layer:"vba"
             ~bytes:(Vba.msg_size t.io.Proto_io.keyring) t.io
             ~wrap:(fun m -> Recovery_vba m))
        ~tag:(t.tag ^ "/recovery")
        ~validate:(fun value -> proposal_valid t value)
        ~on_decide:(fun ~winner:_ value -> on_recovery_decision t value)
        ()
    in
    t.vba <- Some v;
    v

(* Propose once.  [Vba.propose] ignores a second call anyway; the flag
   spares re-checking every state report's signature on each later
   STATE message. *)
and try_propose_recovery t =
  if t.mode = Switching && not t.proposed then begin
    let valid = List.filter (state_valid t) t.states in
    let parties =
      List.fold_left (fun acc r -> Pset.add r.st_party acc) Pset.empty valid
    in
    if Proto_io.big_quorum t.io parties then begin
      (* keep one report per party *)
      let dedup =
        List.fold_left
          (fun acc r -> if List.exists (fun r' -> r'.st_party = r.st_party) acc then acc else r :: acc)
          [] valid
      in
      t.proposed <- true;
      Vba.propose (vba_of t) (proposal_of_states t dedup)
    end
  end

and on_recovery_decision t value =
  if t.final_prefix = None then begin
    match decode_proposal t value with
    | None -> ()
    | Some entries ->
      let final = List.fold_left (fun acc (_, d, _) -> max acc d) 0 entries in
      t.final_prefix <- Some final;
      finish_fast_path t
  end

(* Deliver the agreed fast-path prefix (fetching missing payloads), then
   hand everything still pending to the randomized fallback. *)
and finish_fast_path t =
  match t.final_prefix with
  | None -> ()
  | Some final ->
    let missing = ref [] in
    for s = t.fast_delivered to final - 1 do
      if not (Hashtbl.mem t.cdelivered s) then
        match List.find_opt (fun (s', _, _) -> s' = s) t.fetched with
        | Some (_, payload, cert) -> Hashtbl.replace t.cdelivered s (payload, cert)
        | None -> missing := s :: !missing
    done;
    if !missing <> [] then
      List.iter (fun s -> t.io.Proto_io.broadcast (Fetch s)) !missing
    else begin
      while t.fast_delivered < final do
        let payload, _ = Hashtbl.find t.cdelivered t.fast_delivered in
        t.fast_delivered <- t.fast_delivered + 1;
        output t payload
      done;
      t.mode <- Fallback;
      let abc = fallback_abc t in
      (* everything not delivered by the fast path is re-ordered *)
      List.iter (fun p -> Abc.broadcast abc p) t.pending;
      Hashtbl.iter
        (fun s (payload, _) ->
          if s >= final && not (Hashtbl.mem t.delivered_digests (digest payload))
          then Abc.broadcast abc payload)
        t.cdelivered
    end

and fallback_abc t : Abc.t =
  match t.abc with
  | Some a -> a
  | None ->
    let a =
      Abc.create ?policy:t.abc_policy
        ~io:
          (Proto_io.embed ~layer:"abc"
             ~bytes:(Abc.msg_size t.io.Proto_io.keyring) t.io
             ~wrap:(fun m -> Fallback_abc m))
        ~tag:(t.tag ^ "/fallback")
        ~deliver:(fun payload -> output t payload)
        ()
    in
    t.abc <- Some a;
    a

(* ---------- progress heuristics ------------------------------------- *)

(* Complaint triggers — purely liveness heuristics; safety never depends
   on them.  A party that has pending work complains when it sees no
   fast-path progress for [timeout] units of virtual time (on its
   [io.timer]) or over [patience] handled messages, whichever comes
   first. *)
and tick t =
  if t.mode = Fast && t.pending <> [] then begin
    t.idle_ticks <- t.idle_ticks + 1;
    if t.idle_ticks > t.patience then send_complaint t
  end

and arm_timer t =
  if (not t.timer_armed) && t.mode = Fast && t.pending <> [] then begin
    t.timer_armed <- true;
    let epoch = t.progress_epoch in
    t.io.Proto_io.timer ~delay:t.timeout (fun () ->
        t.timer_armed <- false;
        if t.mode = Fast && t.pending <> [] then begin
          if t.progress_epoch = epoch then send_complaint t;
          arm_timer t
        end)
  end

(* ---------- API ------------------------------------------------------ *)

let broadcast t payload =
  let d = digest payload in
  if
    (not (Hashtbl.mem t.delivered_digests d))
    && not (List.exists (fun p -> digest p = d) t.pending)
  then begin
    t.pending <- payload :: t.pending;
    (match t.mode with
    | Fast | Switching -> t.io.Proto_io.broadcast (Submit payload)
    | Fallback -> Abc.broadcast (fallback_abc t) payload);
    arm_timer t
  end

let handle t ~src msg =
  tick t;
  match msg with
  | Submit payload ->
    let d = digest payload in
    if
      (not (Hashtbl.mem t.delivered_digests d))
      && not (List.exists (fun p -> digest p = d) t.pending)
    then begin
      t.pending <- payload :: t.pending;
      arm_timer t
    end;
    (* the sequencer assigns the next slot *)
    if
      t.io.Proto_io.me = sequencer
      && t.mode = Fast
      && not (Hashtbl.mem t.delivered_digests d)
      &&
      (* not already sequenced *)
      not
        (Hashtbl.fold
           (fun _ (p, _) acc -> acc || digest p = d)
           t.cdelivered false)
    then begin
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Cbc.broadcast (cbc_of t seq) payload
    end
  | Seq_cbc (seq, m) ->
    if seq >= 0 && seq < 100_000 && t.mode <> Fallback then
      Cbc.handle (cbc_of t seq) ~src m
  | Ack (s, share) ->
    if s > 0 && t.mode = Fast then begin
      let shares = ack_shares_of t s in
      if
        (not (List.mem_assoc src !shares))
        && Proto_io.verify_signature t.io ~party:src (ack_stmt t s) share
      then begin
        shares := (src, share) :: !shares;
        if not (Hashtbl.mem t.ack_certs s) then begin
          match Keyring.make_cert t.io.Proto_io.keyring (ack_stmt t s) !shares with
          | Some cert ->
            Hashtbl.replace t.ack_certs s cert;
            try_fast_delivery t
          | None -> ()
        end
      end
    end
  | Complain share ->
    if
      (not (List.mem_assoc src t.complain_shares))
      && Proto_io.verify_signature t.io ~party:src (complain_stmt t) share
    then begin
      t.complain_shares <- (src, share) :: t.complain_shares;
      maybe_switch t
    end
  | State report ->
    if
      (not (List.exists (fun r -> r.st_party = report.st_party) t.states))
      && state_valid t report
    then begin
      t.states <- report :: t.states;
      try_propose_recovery t
    end
  | Recovery_vba m ->
    Vba.handle (vba_of t) ~src m
  | Fetch s ->
    (match Hashtbl.find_opt t.cdelivered s with
    | Some (payload, cert) ->
      t.io.Proto_io.send src (Fetch_reply (s, payload, cert))
    | None -> ())
  | Fetch_reply (s, payload, cert) ->
    if
      (not (List.exists (fun (s', _, _) -> s' = s) t.fetched))
      && Cbc.check_transferred t.io
           ~tag:(cbc_tag t s) ~sender:sequencer payload cert
    then begin
      t.fetched <- (s, payload, cert) :: t.fetched;
      finish_fast_path t
    end
  | Fallback_abc m ->
    (match t.mode with
    | Fallback -> Abc.handle (fallback_abc t) ~src m
    | Fast | Switching ->
      (* fallback traffic from parties that switched earlier: join in *)
      Abc.handle (fallback_abc t) ~src m)

let delivered_log t = List.rev t.delivered_log
let pending t = t.pending

let msg_size kr = function
  | Submit p -> 8 + String.length p
  | Seq_cbc (_, m) -> 8 + Cbc.msg_size kr m
  | Ack _ -> 80
  | Complain _ -> 80
  | State r ->
    100 + (match r.st_cert with None -> 0 | Some c -> Keyring.cert_size kr c)
  | Recovery_vba m -> 8 + Vba.msg_size kr m
  | Fetch _ -> 16
  | Fetch_reply (_, p, c) -> 16 + String.length p + Keyring.cert_size kr c
  | Fallback_abc m -> 8 + Abc.msg_size kr m
