(* Crash recovery for the atomic-broadcast stack: certified checkpoints,
   log truncation, and a catch-up/state-transfer path for rejoining or
   lagging replicas.

   Every [interval] rounds each replica snapshots its ordered state at
   the round boundary (the boundary hook fires the instant round [b]
   completes, when the delivered history is identical at every honest
   party), hashes the canonical {!Codec.encode_snapshot} frame, and
   broadcasts a threshold-signature share over the statement
   ["recov-ckpt" | tag | b | hash].  Once shares from a set that surely
   contains an honest party combine ([Keyring.service_combine] — t+1 in
   the threshold case), the snapshot plus combined signature form a
   *checkpoint certificate*: transferable evidence that at least one
   honest replica vouched for exactly these bytes.  Certification
   triggers {!Abc.truncate}, which drops the delivered-log prefix and
   retires every per-round protocol structure below the boundary, so
   memory stays bounded under sustained load.

   A recovering replica (fresh state after {!revive}) or a lagging one
   (it sees checkpoint shares for rounds far beyond its own) broadcasts
   [Fetch] on the io's unsequenced send, because its link state is
   gone, and peers answer the same way with [State]: their latest
   certificate, their delivered-log suffix, their round, and the link
   endpoint's resume points that resynchronize the ARQ channel pair.
   The fetcher rejects any reply whose certificate fails to verify (a
   forged snapshot dies here: the adversary holds only its own key
   shares, short of what combining requires), then waits until replies
   agreeing *exactly* on (certificate, suffix, round) come from a set
   that surely contains an honest party.  The honest member
   guarantees the uncertified suffix too, so installing the group's
   state via {!Abc.install_checkpoint} is safe; a retry timer re-fetches
   until the quorum forms (at the latest when the stream quiesces and
   all honest replicas answer identically).

   Nothing here runs unless a deployment opts in: with [interval = 0]
   and no [Fetch] traffic the wrapped {!Abc} behaves bit-identically to
   a bare one. *)

type msg =
  | App of Abc.msg  (** the wrapped atomic-broadcast traffic *)
  | Ckpt_share of { round : int; hash : string; share : Keyring.sig_share }
  | Fetch of { epoch : int }  (** catch-up request (unsequenced send) *)
  | State of {
      epoch : int;
      ck : string;  (** latest certified checkpoint frame, [""] if none *)
      suffix : string list;  (** delivered log past the checkpoint *)
      round : int;
      expect : int;  (** link resume: expect my DATA from this seq *)
      start : int;  (** link resume: emit your DATA from this seq *)
    }

(* A stored catch-up reply, certificate already decoded and verified
   (validation happens at receipt so a forged certificate is rejected
   and counted the moment it arrives).  Reply agreement groups on the
   *snapshot* frame, not the whole certificate frame: any valid
   certificate over the same snapshot is equivalent evidence, and
   generalized (LSSS) certificates legitimately differ by endorser
   subset across honest peers. *)
type reply = {
  r_snap : string;  (* decoded snapshot frame, [""] at genesis *)
  r_base : string list;  (* digest history certified by the snapshot *)
  r_ckinfo : (int * int * string) option;  (* round, len, ckpt frame *)
  r_suffix : string list;
  r_round : int;
}

type t = {
  io : msg Proto_io.t;
  tag : string;
  interval : int;  (* checkpoint every this many rounds; 0 = off *)
  abc : Abc.t;
  (* checkpoint-in-progress state, all keyed by boundary round *)
  mutable created : int;  (* highest boundary snapshotted here *)
  snaps : (int, string * int) Hashtbl.t;  (* frame, digest count *)
  hashes : (int, string) Hashtbl.t;
  shares : (int, (int * string * Keyring.sig_share) list) Hashtbl.t;
  mutable certified : (int * int * string) option;  (* round, len, frame *)
  (* serving side *)
  served : (int * int, int * int) Hashtbl.t;  (* peer, epoch -> resume *)
  (* fetching side *)
  mutable epoch : int;
  mutable fetching : bool;
  mutable replies : (int * reply) list;
  mutable rejected : int;  (* replies dropped for a bad certificate *)
  mutable transfers : int;
  mutable transfer_bytes : int;
  mutable on_transfer : (bytes:int -> round:int -> unit) option;
}

let recov_labels = [ ("layer", "recov") ]

let stmt t round hash =
  Ro.encode [ "recov-ckpt"; t.tag; string_of_int round; hash ]

let abc t = t.abc
let submit t payload = Abc.broadcast t.abc payload
let certified_round t = match t.certified with Some (r, _, _) -> r | None -> 0
let transfers t = t.transfers
let transfer_bytes t = t.transfer_bytes
let rejected_replies t = t.rejected
let set_on_transfer t f = t.on_transfer <- Some f

(* ---------- checkpoint creation and certification ------------------- *)

let cleanup_upto t b =
  let dead tbl =
    Hashtbl.fold (fun r _ acc -> if r <= b then r :: acc else acc) tbl []
  in
  List.iter (Hashtbl.remove t.snaps) (dead t.snaps);
  List.iter (Hashtbl.remove t.hashes) (dead t.hashes);
  List.iter (Hashtbl.remove t.shares) (dead t.shares)

let try_certify t b =
  match Hashtbl.find_opt t.hashes b with
  | None -> ()
  | Some h -> (
    let kr = t.io.Proto_io.keyring in
    let entries =
      match Hashtbl.find_opt t.shares b with Some l -> l | None -> []
    in
    (* Combine first: [service_combine] checks the combined value, so
       checkpoint shares travel bare (see [maybe_checkpoint]). *)
    let matching =
      List.filter_map
        (fun (src, hash, share) ->
          if hash = h && Keyring.sig_share_signer share = src then Some share
          else None)
        entries
    in
    match Keyring.service_combine kr (stmt t b h) matching with
    | None -> ()
    | Some s ->
      if Keyring.service_verify kr (stmt t b h) s then begin
        let frame, len = Hashtbl.find t.snaps b in
        (match t.certified with
        | Some (r0, _, _) when r0 >= b -> ()
        | _ ->
          let ck =
            Codec.encode_ckpt ~snapshot:frame
              ~cert:(Keyring.service_signature_to_bytes kr s)
          in
          t.certified <- Some (b, len, ck);
          let obs = t.io.Proto_io.obs in
          if Obs.active obs then
            Obs.incr obs ~labels:recov_labels "ckpt_certified";
          Abc.truncate t.abc ~upto_round:b ~upto_len:len);
        cleanup_upto t b
      end)

let maybe_checkpoint t b =
  if t.interval > 0 && b > t.created && b mod t.interval = 0 then begin
    t.created <- b;
    let digests = Abc.delivered_digests t.abc in
    let frame =
      Codec.encode_snapshot ~round:b ~app:"" ~digests
    in
    let hash = Sha256.digest frame in
    Hashtbl.replace t.snaps b (frame, List.length digests);
    Hashtbl.replace t.hashes b hash;
    let obs = t.io.Proto_io.obs in
    if Obs.active obs then Obs.incr obs ~labels:recov_labels "ckpt_created";
    let share =
      Keyring.service_reply_share t.io.Proto_io.keyring
        ~party:t.io.Proto_io.me (stmt t b hash)
    in
    (* Reliable (counted, sequenced) traffic: shares are protocol
       messages, not recovery-path unsequenced traffic. *)
    t.io.Proto_io.broadcast (Ckpt_share { round = b; hash; share });
    (* Peers ahead of us may have delivered their shares already. *)
    try_certify t b
  end

let create ?policy ?(interval = 0) ~(io : msg Proto_io.t) ~tag ~deliver () =
  if interval < 0 then invalid_arg "Recovery.create: negative interval";
  let abc_io =
    Proto_io.embed io ~layer:"abc"
      ~bytes:(Abc.msg_size io.Proto_io.keyring)
      ~wrap:(fun m -> App m)
  in
  let abc = Abc.create ?policy ~io:abc_io ~tag ~deliver () in
  let t =
    {
      io;
      tag;
      interval;
      abc;
      created = 0;
      snaps = Hashtbl.create 7;
      hashes = Hashtbl.create 7;
      shares = Hashtbl.create 7;
      certified = None;
      served = Hashtbl.create 7;
      epoch = 0;
      fetching = false;
      replies = [];
      rejected = 0;
      transfers = 0;
      transfer_bytes = 0;
      on_transfer = None;
    }
  in
  if interval > 0 then Abc.set_boundary_hook abc (fun b -> maybe_checkpoint t b);
  t

(* ---------- catch-up: fetching side --------------------------------- *)

(* Catch-up re-fetch period (virtual time). *)
let retry = 350.

let rec request_round t epoch =
  if t.fetching && t.epoch = epoch then begin
    let n = Proto_io.n t.io in
    for dst = 0 to n - 1 do
      if dst <> t.io.Proto_io.me then
        t.io.Proto_io.unsequenced dst (Fetch { epoch })
    done;
    t.io.Proto_io.timer ~delay:retry (fun () -> request_round t epoch)
  end

let start_catch_up t =
  t.epoch <- t.epoch + 1;
  t.fetching <- true;
  t.replies <- [];
  request_round t t.epoch

(* Decode and verify a reply's certificate.  [None] means forged or
   malformed; [Some (digest history, ckinfo)] that the certified part is
   sound ([""] = genesis: nothing certified yet, an honest answer early
   in a stream). *)
let validate_ck t ck =
  if ck = "" then Some ("", [], None)
  else
    match Codec.decode_ckpt ck with
    | None -> None
    | Some (snap, certb) -> (
      match Codec.decode_snapshot snap with
      | None -> None
      | Some (b, _app, digests) -> (
        let kr = t.io.Proto_io.keyring in
        match Keyring.service_signature_of_bytes kr certb with
        | None -> None
        | Some s ->
          if Keyring.service_verify kr (stmt t b (Sha256.digest snap)) s
          then Some (snap, digests, Some (b, List.length digests, ck))
          else None))

let reject_reply t ~src =
  ignore src;
  t.rejected <- t.rejected + 1;
  let obs = t.io.Proto_io.obs in
  if Obs.active obs then Obs.incr obs ~labels:recov_labels "ckpt_rejected"

let install t (r : reply) =
  let ck_bytes =
    match r.r_ckinfo with Some (_, _, ck) -> String.length ck | None -> 0
  in
  let bytes =
    ck_bytes
    + List.fold_left (fun a p -> a + String.length p + 8) 0 r.r_suffix
    + 24
  in
  Abc.install_checkpoint t.abc ~round:r.r_round ~digests:r.r_base
    ~suffix:r.r_suffix;
  (match r.r_ckinfo with
  | None -> ()
  | Some (b, len, ck) ->
    if b > t.created then t.created <- b;
    (match t.certified with
    | Some (r0, _, _) when r0 >= b -> ()
    | _ -> t.certified <- Some (b, len, ck)));
  t.fetching <- false;
  t.replies <- [];
  t.transfers <- t.transfers + 1;
  t.transfer_bytes <- t.transfer_bytes + bytes;
  let obs = t.io.Proto_io.obs in
  if Obs.active obs then
    Obs.incr obs ~labels:recov_labels ~by:bytes "state_transfer_bytes";
  match t.on_transfer with
  | Some f -> f ~bytes ~round:r.r_round
  | None -> ()

(* Install once replies agreeing exactly on (certificate, suffix, round)
   come from a set that surely contains an honest party.  The honest
   member vouches for the uncertified suffix; the certificate is already
   verified per reply.  A Byzantine server can only join a group by
   matching honest content exactly — in which case the content is
   honest. *)
let try_install t =
  if t.fetching then begin
    let groups : ((string * string list * int) * int list) list =
      List.fold_left
        (fun acc (src, r) ->
          let key = (r.r_snap, r.r_suffix, r.r_round) in
          match List.assoc_opt key acc with
          | Some srcs ->
            (key, src :: srcs) :: List.remove_assoc key acc
          | None -> (key, [ src ]) :: acc)
        [] t.replies
    in
    let viable =
      List.filter
        (fun (_, srcs) ->
          Proto_io.contains_honest t.io (Pset.of_list srcs))
        groups
    in
    (* Prefer the most advanced agreed state if several quorums exist. *)
    let viable =
      List.sort
        (fun ((_, _, r1), _) ((_, _, r2), _) -> compare r2 r1)
        viable
    in
    match viable with
    | [] -> ()
    | ((_, _, _), src :: _) :: _ ->
      let r = List.assoc src t.replies in
      let total = List.length r.r_base + List.length r.r_suffix in
      if
        total > Abc.delivered_count t.abc
        || r.r_round > Abc.current_round t.abc
      then install t r
      else begin
        (* The quorum's state is no newer than ours: already caught up. *)
        t.fetching <- false;
        t.replies <- []
      end
    | (_, []) :: _ -> ()
  end

let on_state t ~src (epoch, ck, suffix, round, expect, start) =
  let n = Proto_io.n t.io in
  if src >= 0 && src < n && src <> t.io.Proto_io.me then begin
    (* Transport-level resync applies regardless of content: the resume
       points concern the channel pair, not the snapshot. *)
    (match t.io.Proto_io.link with
    | Some l -> l.Proto_io.rejoin ~peer:src ~expect ~start
    | None -> ());
    (* Verify the certificate on every reply, even one arriving after an
       install closed the episode: a forged snapshot is refused (and
       counted) whenever it shows up, not only while it could race the
       honest quorum. *)
    match validate_ck t ck with
    | None -> reject_reply t ~src
    | Some (snap, base, ckinfo) ->
      let ck_round = match ckinfo with Some (b, _, _) -> b | None -> 0 in
      if ck_round > round then reject_reply t ~src
      else if t.fetching && epoch = t.epoch then begin
        t.replies <-
          (src, { r_snap = snap; r_base = base; r_ckinfo = ckinfo;
                  r_suffix = suffix; r_round = round })
          :: List.remove_assoc src t.replies;
        try_install t
      end
  end

(* ---------- catch-up: serving side ---------------------------------- *)

let serve t ~src epoch =
  let n = Proto_io.n t.io in
  if src >= 0 && src < n && src <> t.io.Proto_io.me then begin
    let resume =
      match Hashtbl.find_opt t.served (src, epoch) with
      | Some r -> r
      | None ->
        (* A new episode from this peer obsoletes its older ones. *)
        let stale =
          Hashtbl.fold
            (fun (p, e) _ acc ->
              if p = src && e < epoch then (p, e) :: acc else acc)
            t.served []
        in
        List.iter (Hashtbl.remove t.served) stale;
        let r =
          match t.io.Proto_io.link with
          | Some l -> l.Proto_io.prepare_rejoin ~peer:src
          | None -> (0, 0)
        in
        Hashtbl.replace t.served (src, epoch) r;
        r
    in
    let expect, start = resume in
    let ck = match t.certified with Some (_, _, f) -> f | None -> "" in
    t.io.Proto_io.unsequenced src
      (State
         {
           epoch;
           ck;
           suffix = Abc.delivered_log t.abc;
           round = Abc.current_round t.abc;
           expect;
           start;
         })
  end

(* ---------- dispatch ------------------------------------------------- *)

let handle t ~src m =
  match m with
  | App m -> Abc.handle t.abc ~src m
  | Ckpt_share { round; hash; share } ->
    if t.interval > 0 && round > certified_round t && round mod t.interval = 0
    then begin
      (* Lag detection: an honest peer only checkpoints boundaries it
         reached; seeing one a whole interval past our round means we
         lost traffic (e.g. a healed partition) — catch up. *)
      if
        (not t.fetching)
        && round > Abc.current_round t.abc + t.interval
      then start_catch_up t;
      let entries =
        match Hashtbl.find_opt t.shares round with Some l -> l | None -> []
      in
      if not (List.exists (fun (s, _, _) -> s = src) entries) then
        Hashtbl.replace t.shares round ((src, hash, share) :: entries);
      if Hashtbl.mem t.hashes round then try_certify t round
    end
  | Fetch { epoch } -> serve t ~src epoch
  | State { epoch; ck; suffix; round; expect; start } ->
    on_state t ~src (epoch, ck, suffix, round, expect, start)

(* ---------- wire-size estimate and summaries ------------------------- *)

let msg_size keyring = function
  | App m -> Abc.msg_size keyring m
  | Ckpt_share { hash; _ } -> 8 + String.length hash + 128
  | Fetch _ -> 8
  | State { ck; suffix; _ } ->
    24 + String.length ck
    + List.fold_left (fun a p -> a + String.length p + 8) 0 suffix

(* ---------- deployment glue ------------------------------------------ *)

type deployment = (msg, t) Stack.deployment

let nodes = Stack.nodes

let deploy ?wrap ?policy ?link ?(interval = 8) ~sim ~keyring ~tag ~deliver () =
  let d =
    Stack.attach ?wrap ?link ~sim ~keyring ~layer:"recov"
      ~bytes:(msg_size keyring)
      ~make:(fun me io ->
        create ?policy ~interval ~io ~tag ~deliver:(deliver me) ())
      ~handle ()
  in
  Stack.probe_abc d abc;
  d

let revive d party =
  let node = Stack.revive d party in
  start_catch_up node;
  node
