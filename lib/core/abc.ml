(* Atomic broadcast: total ordering of payloads via one multi-valued
   validated agreement per global round, following the round structure of
   Chandra-Toueg adapted to the Byzantine model (paper, Section 3).

   Round r at every party:
   1. sign the oldest not-yet-delivered payload you know (or an empty
      placeholder) under a statement binding the instance, the round and
      the payload, and send it to everyone;
   2. collect a big-quorum of validly signed round-r proposals and
      propose the encoded list to VBA_r, whose external-validity
      predicate re-checks exactly that: a list of properly signed
      round-r proposals from a big-quorum of distinct senders (so the
      agreement can only land on lists acceptable to honest parties, and
      at least a structurally honest portion of each decided list comes
      from honest senders);
   3. deliver the payloads of the decided list in a deterministic order,
      skipping placeholders and duplicates; then enter round r+1.

   Fairness: a payload is relayed to all servers on its first submission
   here (a resubmission, or one of an already delivered payload, only
   enqueues it), and every honest party proposes the *globally smallest*
   (by digest) undelivered payload it knows.  Once a payload is known to
   the honest parties, it appears in every honest proposal, hence in at
   least one member of any valid decided list, and is delivered within
   the next round.

   Batching and pipelining (the throughput layer): per-payload cost is
   dominated by the per-round threshold-crypto agreement, so a {!policy}
   amortizes it two ways.  With [max_batch_msgs > 1] each proposal
   carries a {!Codec.encode_batch} frame of up to that many undelivered
   payloads (oldest first in digest order, capped at [max_batch_bytes]),
   and external validity additionally requires every non-placeholder
   entry of a decided list to be a well-formed frame within the caps —
   the policy is deployment-wide, so all honest parties agree on the
   framing and a malformed Byzantine frame is rejected whole, never
   mis-split.  With [window > 1] a party opens up to [window] rounds at
   once, packing *disjoint* batches (a payload sits in at most one
   in-flight proposal), so dissemination and signing for round r+1 run
   under round r's agreement; rounds still decide and deliver strictly
   in order, and a full window back-pressures (no new round is opened)
   instead of growing unbounded in-flight state.  Every round costs one
   agreement whatever it carries, so a round behind the head opens on
   our own initiative only with a batch at least as large as our batch
   in the round ahead (or a full one); smaller leftovers wait for the
   next head round, which always opens, and a round another party has
   started is always joined.  Fairness is preserved inside a batch:
   payloads are packed oldest-undelivered-first, and the globally
   smallest undelivered payload still heads every honest proposal of
   the earliest unproposed round. *)

type policy = {
  max_batch_msgs : int;  (* payloads per proposal frame; 1 = no framing *)
  max_batch_bytes : int;  (* cap on summed payload bytes per frame *)
  window : int;  (* rounds a party may have in flight at once *)
}

let default_policy =
  { max_batch_msgs = 1; max_batch_bytes = 1 lsl 20; window = 1 }

let check_policy p =
  if p.max_batch_msgs < 1 then invalid_arg "Abc.create: max_batch_msgs < 1";
  if p.max_batch_bytes < 1 then invalid_arg "Abc.create: max_batch_bytes < 1";
  if p.window < 1 then invalid_arg "Abc.create: window < 1"

type msg =
  | Request of string  (* payload relay ("send to all servers") *)
  | Proposal of int * string * string  (* round, payload, signature bytes *)
  | Vba_msg of int * Vba.msg

(* A round's agreement, or its tombstone: a delivered round whose VBA
   ignores every message it can still receive keeps only its entry, so
   that {!retire_rounds_below} still counts it. *)
type round_vba =
  | Running of Vba.t
  | Tombstone

type t = {
  io : msg Proto_io.t;
  tag : string;
  policy : policy;
  deliver : string -> unit;  (* called in the agreed total order *)
  mutable queue : string list;  (* undelivered known payloads, digest-sorted *)
  delivered : (string, unit) Hashtbl.t;  (* digests of delivered payloads *)
  mutable delivered_log : string list;  (* newest first, for inspection *)
  mutable digest_log : string list;
      (* digests of the whole delivered history, newest first.  Unlike
         [delivered_log] this is never truncated: 32 bytes per payload
         buy permanent dedup and the digest history that checkpoint
         snapshots carry (the PBFT-style substitution for keeping full
         payloads forever). *)
  mutable history : Sha256.ctx;
      (* running {!Codec.history_digest} of [digest_log], fed once per
         delivery and rebuilt by [install_checkpoint]: a checkpoint
         reads it instead of re-hashing the whole history *)
  mutable base_len : int;  (* deliveries certified away by checkpoints *)
  mutable log_len : int;  (* length of [delivered_log] (kept O(1)) *)
  mutable log_peak : int;  (* high-water of [log_len], for GC evidence *)
  mutable retired : int;  (* rounds of protocol state retired so far *)
  mutable on_boundary : (int -> unit) option;
      (* called with the new round number each time a round completes;
         the recovery layer snapshots at interval boundaries here *)
  mutable round : int;
  mutable participated : int list;
      (* rounds from [round] on where our proposal is out *)
  my_batches : (int, string list) Hashtbl.t;
      (* in-flight round -> payloads we packed into its proposal *)
  proposals : (int, (int * string) list ref) Hashtbl.t;
      (* round -> (sender, payload); only validly signed entries *)
  raw_sigs : (int, (int * string) list ref) Hashtbl.t;
      (* round -> (sender, signature bytes), aligned with [proposals] *)
  vbas : (int, round_vba) Hashtbl.t;
  mutable vba_proposed : int list;  (* rounds from [round] on *)
  decisions : (int, string) Hashtbl.t;  (* round -> decided list, encoded *)
  digests : (string, string) Hashtbl.t;
      (* payload -> digest, memoized for queued and logged payloads only *)
  relayed : (string, unit) Hashtbl.t;
      (* digests of payloads submitted here and relayed, until delivered *)
  memos : (int, Proto_io.memo) Hashtbl.t;
      (* round -> this replica's verified-signature memo for the round's
         proposals and VBA subtree; open only inside the window *)
  mutable sp_epoch : int;  (* open trace span of the current round *)
}

let placeholder = ""

let prop_stmt t r payload =
  Ro.encode [ "abc-prop"; t.tag; string_of_int r; payload ]

(* Digests drive the queue order, dedup and batch bookkeeping, so they
   are recomputed on hot paths; memoize per payload.  A payload that is
   already delivered is hashed without memoizing: its entry would
   outlive the log prefix {!truncate} drops. *)
let digest t p =
  match Hashtbl.find_opt t.digests p with
  | Some d -> d
  | None ->
    let d = Sha256.digest p in
    if not (Hashtbl.mem t.delivered d) then Hashtbl.add t.digests p d;
    d

(* ---------- batch frames ------------------------------------------- *)

let batching t = t.policy.max_batch_msgs > 1
let batch_bytes ps = List.fold_left (fun a p -> a + String.length p) 0 ps

(* A proposal's frame is acceptable iff an honest party under the same
   (deployment-wide) policy could have produced it.  A single payload
   larger than [max_batch_bytes] still travels alone — otherwise it
   could never be ordered — hence the singleton escape. *)
let valid_frame t (frame : string) : bool =
  match Codec.decode_batch frame with
  | None -> false
  | Some ps ->
    ps <> []
    && List.length ps <= t.policy.max_batch_msgs
    && List.for_all (fun p -> p <> placeholder) ps
    && (batch_bytes ps <= t.policy.max_batch_bytes || List.length ps = 1)

(* The payloads a (validated) proposal contributes to ordering. *)
let payloads_of_proposal t (p : string) : string list =
  if p = placeholder then []
  else if batching t then
    match Codec.decode_batch p with
    | Some ps -> List.filter (fun x -> x <> placeholder) ps
    | None -> []
  else [ p ]

(* Queue payloads not packed into any in-flight proposal of ours,
   oldest (smallest digest) first. *)
let unproposed t : string list =
  let in_flight =
    Hashtbl.fold
      (fun _ ps acc -> List.fold_left (fun acc p -> digest t p :: acc) acc ps)
      t.my_batches []
  in
  List.filter
    (fun p -> p <> placeholder && not (List.mem (digest t p) in_flight))
    t.queue

(* Greedy oldest-first packing under both caps. *)
let take_batch t avail : string list * string list =
  let rec go k bytes acc rest =
    match rest with
    | [] -> (List.rev acc, [])
    | p :: tl ->
      if k >= t.policy.max_batch_msgs then (List.rev acc, rest)
      else
        let lp = String.length p in
        if acc <> [] && bytes + lp > t.policy.max_batch_bytes then
          (List.rev acc, rest)
        else go (k + 1) (bytes + lp) (p :: acc) tl
  in
  go 0 0 [] avail

let in_flight t = List.length t.participated

let in_flight_rounds t : (int * int) list =
  List.sort compare t.participated
  |> List.map (fun r ->
         let props =
           match Hashtbl.find_opt t.proposals r with
           | Some l -> List.length !l
           | None -> 0
         in
         (r, props))

(* ---------- proposal-list encoding --------------------------------- *)

(* A proposal list is the VBA value: flattened triples
   (sender, payload, signature). *)
let encode_list (entries : (int * string * string) list) : string =
  Codec.encode
    (List.concat_map
       (fun (sender, payload, sg) -> [ string_of_int sender; payload; sg ])
       entries)

let decode_list (s : string) : (int * string * string) list option =
  Wire.parse s (fun r ->
      Wire.until_end r (fun r ->
          let sender = Wire.decimal r in
          let payload = Wire.bytes r in
          (sender, payload, Wire.bytes r)))

(* ---------- per-round verified-signature memos ---------------------- *)

(* Round r's memo.  It is open while r is inside the pipeline window
   [t.round, t.round + window) and closed — entries dropped — once r
   delivers or is retired, so at most [window] memos hold entries.  A
   delivered round gets a closed throwaway: late traffic of a finished
   round is checked in full and recorded nowhere. *)
let round_memo t r =
  if r < t.round then Proto_io.fresh_memo ()
  else begin
    let m =
      match Hashtbl.find_opt t.memos r with
      | Some m -> m
      | None ->
        let m = Proto_io.fresh_memo () in
        Hashtbl.add t.memos r m;
        m
    in
    if r < t.round + t.policy.window then Proto_io.open_memo m;
    m
  end

let round_io t r = { t.io with Proto_io.memo = round_memo t r }

(* Re-establish the memo invariant after [t.round] moved: forget the
   memos of rounds below it, open those that entered the window. *)
let slide_memos t =
  Hashtbl.filter_map_inplace
    (fun r m ->
      if r < t.round then begin
        Proto_io.close_memo m;
        None
      end
      else begin
        if r < t.round + t.policy.window then Proto_io.open_memo m;
        Some m
      end)
    t.memos

(* External validity for round r: a big-quorum of distinct senders, each
   with a valid signature on its own (round-bound) payload; under a
   batching policy every payload must additionally be a well-formed
   batch frame within the policy caps. *)
let valid_list t r (value : string) : bool =
  match decode_list value with
  | None -> false
  | Some entries ->
    List.for_all
      (fun (sender, _, _) -> sender >= 0 && sender < Proto_io.n t.io)
      entries
    &&
    let senders =
      List.fold_left (fun acc (s, _, _) -> Pset.add s acc) Pset.empty entries
    in
    List.length entries = Pset.card senders  (* distinct senders *)
    && Proto_io.big_quorum t.io senders
    && ((not (batching t))
       || List.for_all
            (fun (_, p, _) -> p = placeholder || valid_frame t p)
            entries)
    &&
    let io = round_io t r in
    List.for_all
      (fun (sender, payload, sg) ->
        match Schnorr_sig.of_bytes t.io.Proto_io.keyring.Keyring.group sg with
        | None -> false
        | Some sg ->
          Proto_io.verify_signature io ~party:sender (prop_stmt t r payload) sg)
      entries

(* ---------- construction ------------------------------------------- *)

let rec create ?(policy = default_policy) ~(io : msg Proto_io.t) ~tag ~deliver
    () : t =
  check_policy policy;
  let t =
    { io;
      tag;
      policy;
      deliver;
      queue = [];
      delivered = Hashtbl.create 32;
      delivered_log = [];
      digest_log = [];
      history = Sha256.init ();
      base_len = 0;
      log_len = 0;
      log_peak = 0;
      retired = 0;
      on_boundary = None;
      round = 0;
      participated = [];
      my_batches = Hashtbl.create 8;
      proposals = Hashtbl.create 8;
      raw_sigs = Hashtbl.create 8;
      vbas = Hashtbl.create 8;
      vba_proposed = [];
      decisions = Hashtbl.create 8;
      digests = Hashtbl.create 64;
      relayed = Hashtbl.create 8;
      memos = Hashtbl.create 8;
      sp_epoch = 0 }
  in
  t

and proposals_of t r =
  match Hashtbl.find_opt t.proposals r with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.proposals r l;
    l

and sigs_of t r =
  match Hashtbl.find_opt t.raw_sigs r with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.raw_sigs r l;
    l

and vba_of t r : Vba.t =
  match Hashtbl.find_opt t.vbas r with
  | Some (Running v) -> v
  | Some Tombstone -> assert false  (* only rounds below [t.round] *)
  | None ->
    let v =
      Vba.create
        ~io:
          (Proto_io.embed ~layer:"vba"
             ~bytes:(Vba.msg_size t.io.Proto_io.keyring)
             ~memo:(round_memo t r) t.io
             ~wrap:(fun m -> Vba_msg (r, m)))
        ~tag:(t.tag ^ "/r" ^ string_of_int r)
        ~validate:(fun value -> valid_list t r value)
        ~on_decide:(fun ~winner:_ value -> on_decision t r value)
        ()
    in
    Hashtbl.add t.vbas r (Running v);
    v

and on_decision t r value =
  if not (Hashtbl.mem t.decisions r) then begin
    Hashtbl.replace t.decisions r value;
    step t
  end

(* ---------- round progression -------------------------------------- *)

and participate t r payload =
  if not (List.mem r t.participated) then begin
    t.participated <- r :: t.participated;
    if t.sp_epoch = 0 then
      t.sp_epoch <-
        Obs.span_begin t.io.Proto_io.obs ~party:t.io.Proto_io.me ~tag:t.tag
          ~layer:"abc"
          ~detail:(Printf.sprintf "r%d" r)
          "epoch";
    let sg =
      Schnorr_sig.to_bytes t.io.Proto_io.keyring.Keyring.group
        (Proto_io.sign (round_io t r) (prop_stmt t r payload))
    in
    t.io.Proto_io.broadcast (Proposal (r, payload, sg))
  end

(* Open rounds [t.round .. t.round + window - 1] in order, packing
   disjoint batches of undelivered payloads — the pipelining half: round
   r+1's dissemination and signing start while round r's agreement is
   still running.  A round is opened when someone else demonstrably
   started it (we must join with at least a placeholder for liveness) or
   when we have a batch worth proposing: any batch for the head round,
   and for a round behind it a batch at least as large as our own batch
   in the round ahead, or a full one.  A smaller batch waits for the
   next head round instead of spending a whole agreement on a few
   payloads.  A full window opens nothing more — that is the
   back-pressure bound on in-flight state. *)
and open_rounds t =
  let limit = t.round + t.policy.window in
  let rec go r avail =
    if r < limit then begin
      if List.mem r t.participated then go (r + 1) avail
      else begin
        let others_active =
          match Hashtbl.find_opt t.proposals r with
          | Some l -> !l <> []
          | None -> false
        in
        let batch, rest = take_batch t (Lazy.force avail) in
        let worth =
          batch <> []
          && (r = t.round
             || rest <> []  (* full: a cap stopped the packing *)
             ||
             match Hashtbl.find_opt t.my_batches (r - 1) with
             | Some ahead -> List.length batch >= List.length ahead
             | None -> true)
        in
        if others_active || worth then begin
          let payload =
            match batch with
            | [] -> placeholder
            | [ p ] when not (batching t) -> p
            | ps -> Codec.encode_batch ps
          in
          if batch <> [] then Hashtbl.replace t.my_batches r batch;
          participate t r payload;
          if Obs.active t.io.Proto_io.obs then begin
            let labels = [ ("layer", "abc") ] in
            Obs.observe t.io.Proto_io.obs ~labels "abc_batch_size"
              (float_of_int (List.length batch));
            Obs.observe t.io.Proto_io.obs ~labels "abc_pipeline_depth"
              (float_of_int (in_flight t))
          end;
          go (r + 1) (Lazy.from_val rest)
        end
        (* not opening r: later rounds stay closed too (contiguity) *)
      end
    end
  in
  (* The queue scan runs only if some round of the window is closed. *)
  go t.round (lazy (unproposed t))

(* Feed each in-flight round's VBA once a big-quorum of signed proposals
   for it is collected. *)
and feed_vbas t =
  let limit = t.round + t.policy.window in
  let rec go r =
    if r < limit then begin
      if List.mem r t.participated && not (List.mem r t.vba_proposed) then begin
        let props = !(proposals_of t r) in
        let senders =
          List.fold_left (fun acc (s, _) -> Pset.add s acc) Pset.empty props
        in
        if Proto_io.big_quorum t.io senders then begin
          t.vba_proposed <- r :: t.vba_proposed;
          let sigs = !(sigs_of t r) in
          let entries =
            List.map (fun (s, p) -> (s, p, List.assoc s sigs)) props
          in
          Vba.propose (vba_of t r) (encode_list entries)
        end
      end;
      go (r + 1)
    end
  in
  go t.round

and step t =
  open_rounds t;
  feed_vbas t;
  (* Consume the decision of the current round, in order: later rounds
     may already have decided, but delivery stays strictly sequential. *)
  let r = t.round in
  match Hashtbl.find_opt t.decisions r with
  | None -> ()
  | Some value ->
    (match decode_list value with
    | None -> assert false  (* external validity guarantees decodability *)
    | Some entries ->
      let payloads =
        List.concat_map (fun (_, p, _) -> payloads_of_proposal t p) entries
        |> List.sort_uniq compare
      in
      List.iter
        (fun p ->
          let d = digest t p in
          if not (Hashtbl.mem t.delivered d) then begin
            Hashtbl.replace t.delivered d ();
            t.delivered_log <- p :: t.delivered_log;
            t.digest_log <- d :: t.digest_log;
            Codec.feed_history t.history d;
            t.log_len <- t.log_len + 1;
            if t.log_len > t.log_peak then t.log_peak <- t.log_len;
            t.queue <- List.filter (fun q -> digest t q <> d) t.queue;
            Hashtbl.remove t.relayed d;
            Obs.point t.io.Proto_io.obs ~party:t.io.Proto_io.me ~tag:t.tag
              ~layer:"abc" "deliver";
            t.deliver p
          end)
        payloads;
      Obs.span_end t.io.Proto_io.obs
        ~detail:(Printf.sprintf "r%d done" r)
        t.sp_epoch;
      t.sp_epoch <- 0;
      (* Payloads we packed for round r but the decided list missed stay
         in the queue and become packable again for a later round.  No
         later message reads a delivered round's proposals, signatures
         or decision: only its VBA stays, to echo a late CBC SEND, and
         not even that once it is settled. *)
      Hashtbl.remove t.my_batches r;
      Hashtbl.remove t.proposals r;
      Hashtbl.remove t.raw_sigs r;
      Hashtbl.remove t.decisions r;
      t.round <- r + 1;
      t.participated <- List.filter (fun x -> x > r) t.participated;
      t.vba_proposed <- List.filter (fun x -> x > r) t.vba_proposed;
      bury t r;
      slide_memos t;
      (match t.on_boundary with
      | Some f -> f (r + 1)
      | None -> ());
      step t)

(* A delivered round's VBA that ignores every message it can still
   receive leaves a tombstone. *)
and bury t r =
  match Hashtbl.find_opt t.vbas r with
  | Some (Running v) when Vba.settled v -> Hashtbl.replace t.vbas r Tombstone
  | Some (Running _ | Tombstone) | None -> ()

(* ---------- API ----------------------------------------------------- *)

(* [payload] (digest [d]) inserted at its place in the digest-sorted
   queue, or [None] if a payload of that digest is queued already. *)
let insert_sorted t d payload =
  let rec go acc = function
    | [] -> Some (List.rev (payload :: acc))
    | q :: rest as queue ->
      let c = String.compare (digest t q) d in
      if c < 0 then go (q :: acc) rest
      else if c = 0 then None
      else Some (List.rev_append acc (payload :: queue))
  in
  go [] t.queue

let enqueue t payload =
  let d = digest t payload in
  match
    if Hashtbl.mem t.delivered d then None else insert_sorted t d payload
  with
  | None -> ()
  | Some queue ->
    (* Digest order makes "oldest undelivered" a global notion, which is
       what the fairness argument needs. *)
    t.queue <- queue;
    step t;
    (* Back-pressure diagnostics: the payload could not be packed, either
       because every round of the pipeline window is already in flight or
       because it waits for a fuller batch than the round ahead's. *)
    if Obs.active t.io.Proto_io.obs then begin
      let packed =
        Hashtbl.fold
          (fun _ ps acc -> acc || List.exists (fun p -> digest t p = d) ps)
          t.my_batches false
      in
      if (not (Hashtbl.mem t.delivered d)) && not packed then
        Obs.incr t.io.Proto_io.obs
          ~labels:[ ("layer", "abc") ]
          "abc_backpressure"
    end

(* Atomic broadcast entry point: relay to every server on the payload's
   first submission here, then enqueue.  One relay already carries a
   payload that reached one honest server to all of them, so a
   resubmission (a client resend) or a delivered payload only enqueues. *)
let broadcast t payload =
  let d = digest t payload in
  if not (Hashtbl.mem t.delivered d || Hashtbl.mem t.relayed d) then begin
    Hashtbl.replace t.relayed d ();
    t.io.Proto_io.broadcast (Request payload)
  end;
  enqueue t payload

let handle t ~src msg =
  match msg with
  | Request payload -> enqueue t payload
  | Proposal (r, payload, sg) ->
    if r >= t.round && r < t.round + 64 then begin
      (* Under a batching policy a non-placeholder proposal must be a
         well-formed frame; reject it whole otherwise (a malformed frame
         is never mis-split, and never counts toward the quorum). *)
      let frame_ok =
        payload = placeholder || (not (batching t)) || valid_frame t payload
      in
      if frame_ok then begin
        let props = proposals_of t r in
        if not (List.mem_assoc src !props) then begin
          match Schnorr_sig.of_bytes t.io.Proto_io.keyring.Keyring.group sg with
          | None -> ()
          | Some parsed ->
            if
              Proto_io.verify_signature (round_io t r) ~party:src
                (prop_stmt t r payload) parsed
            then begin
              props := (src, payload) :: !props;
              let sigs = sigs_of t r in
              sigs := (src, sg) :: !sigs;
              (* A payload proposed by someone else is also worth
                 ordering. *)
              List.iter (fun p -> enqueue t p) (payloads_of_proposal t payload);
              step t
            end
        end
      end
    end
  | Vba_msg (r, m) ->
    if r >= t.round && r < t.round + 64 then begin
      Vba.handle (vba_of t r) ~src m;
      step t
    end
    else begin
      match Hashtbl.find_opt t.vbas r with
      | Some (Running v) -> Vba.handle v ~src m
      | Some Tombstone | None -> ()
    end;
    (* The message may have delivered round r, from inside one of its
       CBCs (packed only once [Vba.handle] returns), or finished a
       delivered round's last CBC. *)
    if r < t.round then bury t r

let memos t =
  Hashtbl.fold (fun r m acc -> (r, m) :: acc) t.memos []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let delivered_log t = List.rev t.delivered_log
let current_round t = t.round
let pending t = t.queue
let backlog t = List.length (unproposed t)

(* ---------- checkpointing: truncation and state transfer ------------ *)

let delivered_count t = t.base_len + t.log_len
let delivered_digests t = List.rev t.digest_log
let history_digest t = Sha256.finalize (Sha256.copy t.history)
let base_len t = t.base_len
let log_len t = t.log_len
let log_peak t = t.log_peak
let retired_rounds t = t.retired
let is_delivered t payload =
  let d =
    match Hashtbl.find_opt t.digests payload with
    | Some d -> d
    | None -> Sha256.digest payload
  in
  Hashtbl.mem t.delivered d

let relay_pending t = Hashtbl.length t.relayed
let digest_memo_len t = Hashtbl.length t.digests

let set_boundary_hook t f = t.on_boundary <- Some f

(* Retire every per-round structure below [r].  A delivered round has
   already let go of its proposals, signatures and decision, and of its
   VBA all but the proposal CBCs' flags, or everything but a tombstone:
   what goes here is that, plus whatever a round skipped by
   {!install_checkpoint} still holds.  Returns the number of VBA rounds
   retired, tombstones included. *)
let retire_rounds_below t r =
  let doomed tbl =
    Hashtbl.fold (fun k _ acc -> if k < r then k :: acc else acc) tbl []
  in
  let vgone = doomed t.vbas in
  List.iter (Hashtbl.remove t.vbas) vgone;
  List.iter (Hashtbl.remove t.proposals) (doomed t.proposals);
  List.iter (Hashtbl.remove t.raw_sigs) (doomed t.raw_sigs);
  List.iter (Hashtbl.remove t.decisions) (doomed t.decisions);
  List.iter (Hashtbl.remove t.my_batches) (doomed t.my_batches);
  List.iter
    (fun k ->
      Proto_io.close_memo (Hashtbl.find t.memos k);
      Hashtbl.remove t.memos k)
    (doomed t.memos);
  t.participated <- List.filter (fun x -> x >= r) t.participated;
  t.vba_proposed <- List.filter (fun x -> x >= r) t.vba_proposed;
  List.length vgone

let note_gc t gone =
  t.retired <- t.retired + gone;
  let obs = t.io.Proto_io.obs in
  if Obs.active obs then begin
    let labels = [ ("layer", "abc") ] in
    if gone > 0 then Obs.incr obs ~by:gone ~labels "round_state_retired";
    Obs_registry.set_max (Obs.gauge obs ~labels "abc_log_len")
      (float_of_int t.log_peak)
  end

let truncate t ~upto_round ~upto_len =
  if upto_len > delivered_count t then invalid_arg "Abc.truncate: future len";
  if upto_len > t.base_len then begin
    let keep = delivered_count t - upto_len in
    (* [delivered_log] is newest-first: the first [keep] entries stay,
       the remainder — the certified prefix — is dropped. *)
    let rec split i acc rest =
      if i = keep then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | x :: tl -> split (i + 1) (x :: acc) tl
    in
    let kept, dropped = split 0 [] t.delivered_log in
    (* The digest memo of a dropped payload is recomputed on the (rare)
       re-arrival of the payload; [delivered] keeps the digest itself,
       so dedup is unaffected. *)
    List.iter (Hashtbl.remove t.digests) dropped;
    t.delivered_log <- kept;
    t.log_len <- keep;
    t.base_len <- upto_len
  end;
  note_gc t (retire_rounds_below t upto_round)

(* Adopt a verified remote state: the certified digest history plus the
   serving peers' uncertified log suffix.  Existing local deliveries are
   merged (their digests stay in [delivered]), so a lagging-but-live
   party keeps its dedup; suffix payloads not yet delivered locally are
   replayed through the deliver callback, in order, before any newer
   decision is consumed.  The caller is responsible for certificate and
   quorum checks. *)
let install_checkpoint t ~round ~digests ~suffix =
  if round < 0 then invalid_arg "Abc.install_checkpoint";
  let fresh = List.filter (fun p -> not (is_delivered t p)) suffix in
  List.iter (fun d -> Hashtbl.replace t.delivered d ()) digests;
  let sdigs = List.map (digest t) suffix in
  List.iter (fun d -> Hashtbl.replace t.delivered d ()) sdigs;
  t.digest_log <- List.rev_append sdigs (List.rev digests);
  t.history <- Sha256.init ();
  List.iter (Codec.feed_history t.history) digests;
  List.iter (Codec.feed_history t.history) sdigs;
  t.base_len <- List.length digests;
  t.delivered_log <- List.rev suffix;
  t.log_len <- List.length suffix;
  if t.log_len > t.log_peak then t.log_peak <- t.log_len;
  t.queue <- List.filter (fun q -> not (Hashtbl.mem t.delivered (digest t q))) t.queue;
  (* The replaced log and the dropped queue entries leave the relayed set
     and the digest memo with them. *)
  Hashtbl.filter_map_inplace
    (fun d () -> if Hashtbl.mem t.delivered d then None else Some ())
    t.relayed;
  let kept = Hashtbl.create (t.log_len + List.length t.queue) in
  List.iter (fun p -> Hashtbl.replace kept p ()) suffix;
  List.iter (fun p -> Hashtbl.replace kept p ()) t.queue;
  Hashtbl.filter_map_inplace
    (fun p d -> if Hashtbl.mem kept p then Some d else None)
    t.digests;
  if round > t.round then t.round <- round;
  slide_memos t;
  note_gc t (retire_rounds_below t t.round);
  List.iter
    (fun p ->
      Obs.point t.io.Proto_io.obs ~party:t.io.Proto_io.me ~tag:t.tag
        ~layer:"abc" "deliver";
      t.deliver p)
    fresh;
  step t

let msg_size kr = function
  | Request p -> 8 + String.length p
  | Proposal (_, p, sg) -> 16 + String.length p + String.length sg
  | Vba_msg (_, m) -> 8 + Vba.msg_size kr m

let msg_summary = function
  | Request p -> Printf.sprintf "abc.REQUEST(%d B)" (String.length p)
  | Proposal (r, p, _) -> Printf.sprintf "abc.PROPOSAL(r%d,%d B)" r (String.length p)
  | Vba_msg (r, m) -> Printf.sprintf "abc.r%d/%s" r (Vba.msg_summary m)
