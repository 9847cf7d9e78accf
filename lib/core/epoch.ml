(* Online epoch reconfiguration: proactive refresh and replica
   replacement over the live atomic-broadcast stack.

   {!Proactive} supplies the cryptographic primitive, one resharing
   toward a target structure: a proactive refresh is a reshare onto the
   current structure, a membership change one onto another.  What was
   left open is the coordination problem the paper flags in Section 6 —
   agreeing on the epoch boundary in an asynchronous network so that
   every honest replica swaps shares at the same point.  This module
   closes it by running the boundary *through the total order the
   service already maintains*:

   1. Every participating replica deals one package over the wire as a
      strict ["SER1"] {!Codec} frame and broadcasts it.  A receiver
      accepts the first frame per dealer that passes [verify_reshare]
      *and* whose claimed dealer is the authenticated sender; a dealer
      caught with two different valid frames (equivocation) or an
      invalid one is excluded.

   2. A replica holding verified packages from a dealer set that surely
      contains an honest party and can recombine proposes the next
      epoch: the ["SEA1"] body fixing the epoch number, the target
      structure (none for the current one: a refresh), and the exact
      package frames (sorted by dealer).  An endorser signs a
      threshold-signature share over the body's hash ONLY if every
      included frame is byte-identical to the one it received directly
      from that dealer — this is the safety hinge: a Byzantine proposer
      cannot attribute fabricated (known-randomness) packages to honest
      dealers, because no honest replica would countersign them, and
      the service threshold is unreachable without an honest signer.

   3. Combined shares yield the certified advance (["SEC1"] body +
      service signature), which is submitted through the atomic
      broadcast like any payload.  At total-order delivery every
      replica re-verifies the certificate and the packages and installs
      the next sharing — same public key, fresh shares — at the same
      log position, so in-flight agreement rounds never stall and
      everything signed before the boundary stays valid.

   Equivocation is contained rather than fatal: both frames of an
   equivocating dealer are valid resharings of its leaves, and only the
   one pinned by the certified body is ever applied, so exclusion is
   hygiene (and observable via the [refresh_excluded] counter), not a
   safety requirement.

   A membership change lives on a different access structure (a
   replica added by inclusion, removed by omission).  A replica that
   was down across boundaries catches up from the *advance chain*: each
   certified advance is self-certifying under the never-changing
   service key, so [Epoch_pull] / [Epoch_push] on the unsequenced send
   replay it safely and deterministically — the rejoiner recomputes the
   current sharing from epoch zero without trusting the pusher. *)

module AS = Adversary_structure

type msg =
  | Rec of Recovery.msg  (** the wrapped recovery + atomic broadcast *)
  | Refresh of { epoch : int; frame : string }
      (** one dealer's ["SER1"] package for [epoch] *)
  | Adv_prop of { body : string }  (** an ["SEA1"] advance proposal *)
  | Adv_share of { epoch : int; hash : string; share : Keyring.sig_share }
      (** endorsement share over an advance body's hash *)
  | Epoch_pull of { have : int }
      (** chain catch-up request (unsequenced send) *)
  | Epoch_push of { certs : string list }
      (** chain suffix (unsequenced send) *)

type t = {
  io : msg Proto_io.t;
  tag : string;
  rng : Prng.t;
  rec_ : Recovery.t;
  mutable sharing : Dl_sharing.t;
  mutable epoch : int;
  mutable chain : string list;  (* certified advances, oldest first *)
  mutable target : Proactive.target option;  (* the open epoch's reshare *)
  mutable own_frame : string;  (* our package for the open epoch *)
  received : (int, string) Hashtbl.t;  (* dealer -> first valid frame *)
  mutable excluded : Pset.t;  (* per-epoch exclusions *)
  mutable excluded_total : int;
  mutable proposed : string;  (* our proposal body, [""] if none *)
  shares : (string, (int * Keyring.sig_share) list) Hashtbl.t;
  bodies : (string, string) Hashtbl.t;  (* hash -> endorsed body *)
  mutable submitted : int;  (* highest epoch whose cert we submitted *)
  mutable pulling : bool;
  mutable on_advance : (epoch:int -> sharing:Dl_sharing.t -> unit) option;
}

let epoch_labels = [ ("layer", "epoch") ]

let bump t name =
  let obs = t.io.Proto_io.obs in
  if Obs.active obs then Obs.incr obs ~labels:epoch_labels name

let stmt t epoch hash =
  Ro.encode [ "epoch-adv"; t.tag; string_of_int epoch; hash ]

let group t = t.sharing.Dl_sharing.group

(* Package/proposal rebroadcast and chain-pull period (virtual time). *)
let epoch_retry = 400.

let recovery t = t.rec_
let submit t payload = Recovery.submit t.rec_ payload
let epoch t = t.epoch
let sharing t = t.sharing
let excluded_total t = t.excluded_total
let set_on_advance t f = t.on_advance <- Some f

(* ---------- package collection --------------------------------------- *)

(* Decode a package frame toward the open epoch's target and verify it
   as coming from [dealer]; the channel binding (claimed dealer =
   authenticated sender) is the caller's. *)
let valid_frame t tgt ~dealer frame =
  match Codec.decode_reshare_pkg (group t) frame with
  | Some pkg ->
    pkg.Proactive.r_dealer = dealer
    && Proactive.verify_reshare t.sharing tgt pkg
  | None -> false

let exclude t dealer =
  if not (Pset.mem dealer t.excluded) then begin
    t.excluded <- Pset.add dealer t.excluded;
    t.excluded_total <- t.excluded_total + 1;
    Hashtbl.remove t.received dealer;
    (* Our standing proposal may carry the excluded dealer; retract it
       so the next [maybe_propose] emits one others can endorse. *)
    t.proposed <- "";
    bump t "refresh_excluded"
  end

let dealer_set t =
  Hashtbl.fold (fun d _ acc -> Pset.add d acc) t.received Pset.empty

(* A dealer set is proposable when it surely contains an honest party
   under the *current* sharing's structure (which after membership
   changes may differ from the keyring's) and can actually recombine in
   the old scheme. *)
let proposable t dealers =
  AS.contains_honest t.sharing.Dl_sharing.structure dealers
  && Lsss.recombination t.sharing.Dl_sharing.scheme dealers <> None

(* A target as an advance body carries it: none for the current
   structure (a proactive refresh), else [n] and the access formula. *)
let body_target t (tgt : Proactive.target) =
  let s = tgt.Proactive.t_structure in
  let cur = t.sharing.Dl_sharing.structure in
  if AS.n s = AS.n cur && AS.access_formula s = AS.access_formula cur then
    None
  else Some (AS.n s, AS.access_formula s)

let endorse t epoch body =
  let h = Sha256.digest body in
  if not (Hashtbl.mem t.bodies h) then begin
    Hashtbl.replace t.bodies h body;
    let share =
      Keyring.service_sign_share t.io.Proto_io.keyring
        ~party:t.io.Proto_io.me (stmt t epoch h)
    in
    t.io.Proto_io.broadcast (Adv_share { epoch; hash = h; share })
  end

let maybe_propose t =
  match t.target with
  | None -> ()
  | Some tgt ->
    if t.proposed = "" then begin
      let dealers = dealer_set t in
      if proposable t dealers then begin
        let epoch = t.epoch + 1 in
        let target = body_target t tgt in
        let pkgs =
          List.map
            (fun d -> Hashtbl.find t.received d)
            (List.sort compare (Pset.to_list dealers))
        in
        let body = Codec.encode_epoch_adv ~epoch ~target ~pkgs in
        t.proposed <- body;
        t.io.Proto_io.broadcast (Adv_prop { body });
        (* Our own endorsement; the broadcast also loops the proposal
           back to us, but endorsing here keeps it prompt under loss. *)
        endorse t epoch body
      end
    end

let on_refresh t ~src epoch frame =
  match t.target with
  | Some tgt when epoch = t.epoch + 1 && not (Pset.mem src t.excluded) -> (
    match Hashtbl.find_opt t.received src with
    | Some f0 when f0 = frame -> ()  (* retry duplicate *)
    | Some _ ->
      (* A second, different frame from the same dealer: equivocation
         if it is also valid, garbage either way — exclude. *)
      exclude t src;
      maybe_propose t
    | None ->
      if valid_frame t tgt ~dealer:src frame then begin
        Hashtbl.replace t.received src frame;
        bump t "refresh_pkgs_verified";
        maybe_propose t
      end
      else exclude t src)
  | _ -> ()

(* ---------- proposals and endorsement -------------------------------- *)

(* Endorsement check of a proposal's package list: dealers strictly
   ascending (canonical, duplicate-free), none excluded, and every
   frame byte-identical to the one received *directly* from its dealer.
   A frame differing from our direct copy while itself valid is
   equivocation evidence: exclude the dealer and refuse; the refreshed
   proposal without it converges.  A frame for a dealer we never heard
   from directly is refused too — countersigning it would launder the
   channel binding. *)
let check_frames t tgt frames =
  let dealer_of frame =
    Option.map
      (fun pkg -> pkg.Proactive.r_dealer)
      (Codec.decode_reshare_pkg (group t) frame)
  in
  let rec go prev acc = function
    | [] -> if Pset.card acc = 0 then `Refuse else `Endorse acc
    | frame :: rest -> (
      match dealer_of frame with
      | None -> `Refuse
      | Some d ->
        if d <= prev || Pset.mem d t.excluded then `Refuse
        else begin
          match Hashtbl.find_opt t.received d with
          | Some f0 when f0 = frame -> go d (Pset.add d acc) rest
          | Some _ ->
            if valid_frame t tgt ~dealer:d frame then exclude t d;
            `Refuse
          | None -> `Refuse
        end)
  in
  go (-1) Pset.empty frames

let on_prop t ~src:_ body =
  match t.target with
  | None -> ()
  | Some tgt -> (
    match Codec.decode_epoch_adv body with
    | None -> ()
    | Some (epoch, target, frames) ->
      if epoch = t.epoch + 1 && target = body_target t tgt then begin
        match check_frames t tgt frames with
        | `Refuse -> maybe_propose t
        | `Endorse dealers ->
          if proposable t dealers then endorse t epoch body
      end)

let try_combine t epoch hash =
  if t.submitted < epoch then begin
    match Hashtbl.find_opt t.bodies hash with
    | None -> ()  (* shares ahead of the body; wait for the proposal *)
    | Some body -> (
      let kr = t.io.Proto_io.keyring in
      let entries =
        match Hashtbl.find_opt t.shares hash with Some l -> l | None -> []
      in
      (* A combined signature already passes [service_verify]. *)
      match Keyring.service_combine kr (stmt t epoch hash)
              (List.map snd entries)
      with
      | None -> ()
      | Some s ->
        let cert = Keyring.service_signature_to_bytes kr s in
        t.submitted <- epoch;
        submit t (Codec.encode_epoch_cert ~body ~cert))
  end

let on_share t ~src epoch hash share =
  if epoch = t.epoch + 1 then begin
    let kr = t.io.Proto_io.keyring in
    if Keyring.service_verify_share kr ~party:src (stmt t epoch hash) share
    then begin
      let entries =
        match Hashtbl.find_opt t.shares hash with Some l -> l | None -> []
      in
      if not (List.mem_assoc src entries) then
        Hashtbl.replace t.shares hash ((src, share) :: entries);
      try_combine t epoch hash
    end
  end

(* ---------- the boundary: certified advance in the total order ------- *)

(* Re-verify and apply an advance body against the current sharing.
   [None] when malformed or not certifiably honest content. *)
let apply_body t target frames =
  let structure =
    match target with
    | None -> Some t.sharing.Dl_sharing.structure
    | Some (n, formula) -> (
      try Some (AS.of_access_formula ~n formula) with _ -> None)
  in
  let pkgs = List.map (Codec.decode_reshare_pkg (group t)) frames in
  match structure with
  | Some structure when not (List.exists Option.is_none pkgs) -> (
    let tgt = Proactive.target_of t.sharing structure in
    let pkgs = List.filter_map Fun.id pkgs in
    let rec ascending prev = function
      | [] -> true
      | (p : Proactive.reshare_package) :: rest ->
        p.Proactive.r_dealer > prev && ascending p.Proactive.r_dealer rest
    in
    if
      ascending (-1) pkgs
      && List.for_all (Proactive.verify_reshare t.sharing tgt) pkgs
      && AS.contains_honest t.sharing.Dl_sharing.structure
           (List.fold_left
              (fun acc (p : Proactive.reshare_package) ->
                Pset.add p.Proactive.r_dealer acc)
              Pset.empty pkgs)
    then Result.to_option (Proactive.apply_reshares t.sharing tgt pkgs)
    else None)
  | _ -> None

let install t frame epoch sharing' =
  t.sharing <- sharing';
  t.epoch <- epoch;
  t.chain <- t.chain @ [ frame ];
  t.target <- None;
  (* Any in-flight pull chain is now stale (its [have] no longer
     matches) and dies at its next firing; without this reset a pull
     satisfied by the total-order or replay path instead of a push
     would leave [pulling] latched and every later [start_pull] — gap
     detection, operator nudges — a silent no-op. *)
  t.pulling <- false;
  t.own_frame <- "";
  Hashtbl.reset t.received;
  t.excluded <- Pset.empty;
  t.proposed <- "";
  Hashtbl.reset t.shares;
  Hashtbl.reset t.bodies;
  bump t "epoch_advanced";
  match t.on_advance with
  | Some f -> f ~epoch ~sharing:sharing'
  | None -> ()

let rec pull_round t have =
  if t.pulling && t.epoch = have then begin
    let n = Proto_io.n t.io in
    for dst = 0 to n - 1 do
      if dst <> t.io.Proto_io.me then
        t.io.Proto_io.unsequenced dst (Epoch_pull { have })
    done;
    t.io.Proto_io.timer ~delay:epoch_retry (fun () -> pull_round t have)
  end

let start_pull t =
  if not t.pulling then begin
    t.pulling <- true;
    pull_round t t.epoch
  end

(* A certified advance, from the total order or from a pushed chain.
   Verification is complete in either case (certificate under the fixed
   service key, packages against the deterministically recomputed
   current sharing), so both paths install the identical sharing. *)
let try_install_cert t frame =
  match Codec.decode_epoch_cert frame with
  | None -> ()
  | Some (body, certb) -> (
    match Codec.decode_epoch_adv body with
    | None -> ()
    | Some (epoch, target, frames) ->
      if epoch = t.epoch + 1 then begin
        let kr = t.io.Proto_io.keyring in
        let h = Sha256.digest body in
        match Keyring.service_signature_of_bytes kr certb with
        | None -> ()
        | Some s ->
          if Keyring.service_verify kr (stmt t epoch h) s then begin
            match apply_body t target frames with
            | Some sharing' -> install t frame epoch sharing'
            | None -> ()
          end
      end
      else if epoch > t.epoch + 1 then
        (* A gap: we were offline across a boundary.  The chain is the
           recovery path. *)
        start_pull t)

let on_pull t ~src have =
  let n = Proto_io.n t.io in
  if src >= 0 && src < n && src <> t.io.Proto_io.me && have < t.epoch
  then begin
    let rec drop k l =
      if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r
    in
    let certs = drop have t.chain in
    if certs <> [] then t.io.Proto_io.unsequenced src (Epoch_push { certs })
  end

let on_push t ~src:_ certs =
  List.iter (fun frame -> try_install_cert t frame) certs

(* ---------- opening an epoch ----------------------------------------- *)

let rec retry_round t epoch =
  if t.epoch < epoch && t.target <> None then begin
    if t.own_frame <> "" then
      t.io.Proto_io.broadcast (Refresh { epoch; frame = t.own_frame });
    if t.proposed <> "" then
      t.io.Proto_io.broadcast (Adv_prop { body = t.proposed });
    t.io.Proto_io.timer ~delay:epoch_retry (fun () -> retry_round t epoch)
  end

let begin_reshare t structure =
  let tgt = Proactive.target_of t.sharing structure in
  t.target <- Some tgt;
  let epoch = t.epoch + 1 in
  let me = t.io.Proto_io.me in
  (* A replica holding no shares (it is being added) contributes no
     package; it still collects, endorses and installs. *)
  if Dl_sharing.shares_of t.sharing me <> [] then begin
    let frame =
      Codec.encode_reshare_pkg (group t)
        (Proactive.make_reshare t.sharing tgt ~dealer:me t.rng)
    in
    t.own_frame <- frame;
    t.io.Proto_io.broadcast (Refresh { epoch; frame })
  end;
  t.io.Proto_io.timer ~delay:epoch_retry (fun () -> retry_round t epoch)

(* ---------- dispatch -------------------------------------------------- *)

let handle t ~src m =
  match m with
  | Rec m -> Recovery.handle t.rec_ ~src m
  | Refresh { epoch; frame } -> on_refresh t ~src epoch frame
  | Adv_prop { body } -> on_prop t ~src body
  | Adv_share { epoch; hash; share } -> on_share t ~src epoch hash share
  | Epoch_pull { have } -> on_pull t ~src have
  | Epoch_push { certs } -> on_push t ~src certs

let msg_size keyring = function
  | Rec m -> Recovery.msg_size keyring m
  | Refresh { frame; _ } -> 8 + String.length frame
  | Adv_prop { body } -> String.length body
  | Adv_share { hash; _ } -> 8 + String.length hash + 128
  | Epoch_pull _ -> 8
  | Epoch_push { certs } ->
    List.fold_left (fun a c -> a + String.length c + 8) 8 certs

(* ---------- deployment glue ------------------------------------------ *)

type deployment = (msg, t) Stack.deployment

let nodes = Stack.nodes

(* One node per party.  The wrapped recovery node delivers through the
   epoch interceptor: certified advances install the next sharing at
   their total-order position, everything else reaches the
   application. *)
let deploy ?wrap ?policy ?link ?(interval = 8) ?(seed = 0) ~sim ~keyring
    ~sharing ~tag ~deliver () =
  let make me (io : msg Proto_io.t) =
    let tref = ref None in
    let rec_ =
      Recovery.create ?policy ~interval ~tag
        ~io:
          (Proto_io.embed io ~layer:"recov"
             ~bytes:(Recovery.msg_size keyring)
             ~wrap:(fun m -> Rec m))
        ~deliver:(fun p ->
          if Codec.is_epoch_cert p then
            match !tref with Some t -> try_install_cert t p | None -> ()
          else deliver me p)
        ()
    in
    let t =
      {
        io;
        tag;
        rng = Prng.create ~seed:(seed + (7919 * me) + 13);
        rec_;
        sharing;
        epoch = 0;
        chain = [];
        target = None;
        own_frame = "";
        received = Hashtbl.create 7;
        excluded = Pset.empty;
        excluded_total = 0;
        proposed = "";
        shares = Hashtbl.create 7;
        bodies = Hashtbl.create 7;
        submitted = 0;
        pulling = false;
        on_advance = None;
      }
    in
    tref := Some t;
    t
  in
  let d =
    Stack.attach ?wrap ?link ~sim ~keyring ~layer:"epoch"
      ~bytes:(msg_size keyring) ~make ~handle ()
  in
  Stack.probe_abc d (fun nd -> Recovery.abc nd.rec_);
  d

(* Kill-and-replace support: the revived party restarts with the
   epoch-0 sharing and recomputes the present one by replaying the
   self-certifying advance chain (pull), while the recovery layer
   transfers the ordered state.  Replayed log suffixes re-deliver
   certified advances; installs are idempotent (epoch <= current is
   ignored), so both paths compose. *)
let revive d party =
  let node = Stack.revive d party in
  Recovery.start_catch_up node.rec_;
  start_pull node;
  node
