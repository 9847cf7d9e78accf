(* Asynchronous binary Byzantine agreement with a cryptographic common
   coin, after Cachin, Kursawe and Shoup (PODC 2000) — the protocol the
   paper builds its whole stack on.  Randomization circumvents the FLP
   impossibility result; expected constant number of rounds.

   Structure per round r >= 1 (all statements are bound to the instance
   tag and the round):

     pre-vote(r, b)   justified by
        r = 1 : a support certificate: a two-cover set endorsed b in the
                initial SUPPORT phase (this is what enforces validity —
                if every honest party proposes b, the other value can
                never gather a support certificate);
        r > 1 : the (unique) pre-certificate of round r-1 for b, or an
                abstain-certificate of round r-1 together with b being
                the round-(r-1) coin value.

     main-vote(r, v), v in {0, 1, abstain}, justified by
        v = b       : a pre-certificate for b in round r (a big-quorum
                      of pre-vote endorsements);
        v = abstain : two validly justified pre-votes of round r for
                      different values.

     A party releases its share of coin r only with an abstain
     main-vote of round r.  The coin is read only behind a big-quorum
     of round-r main-votes that all abstained (to pre-vote from it, or
     to check a J_coin pre-vote carrying its certificate); under Q^3
     the honest members of such a quorum, all of them abstainers, form
     a sharing-qualified set, so they can reconstruct the coin.  A
     quorum holding a value main-vote needs no coin.  The first honest
     share still follows an honest main-vote, so the coin is revealed
     no earlier than in CKS00.

     On a big-quorum of main-votes: all for b -> decide b and broadcast
     a self-contained DECIDE certificate; otherwise pre-vote in round
     r+1 for the value of any main-vote seen (carrying its embedded
     pre-certificate) or, if all abstained, for the coin value.

   Why the coin wins: certificates for both values in one round would
   need two big-quorums whose honest members pre-voted differently, so
   honest pre-voters split into corruptible H_0 and H_1 — together with
   the corrupted set these would be three corruptible sets covering all
   parties, contradicting Q^3.  Hence at most one value is certifiable
   per round, it is fixed before the coin is revealed, and with
   probability >= 1/2 the coin agrees with it, after which every honest
   party decides in the next round. *)

module AS = Adversary_structure

type mainv = Value of bool | Abstain

type support_cert = (int * Keyring.cert_share) list

type prevote_just =
  | J_support of support_cert
  | J_pre_cert of Keyring.cert
  | J_coin of Keyring.cert

type prevote = {
  pv_round : int;
  pv_vote : bool;
  pv_just : prevote_just;
  pv_share : Keyring.cert_share;
}

type signed_prevote = { sp_src : int; sp_pv : prevote }

type mainvote_just =
  | J_quorum of Keyring.cert
  | J_conflict of signed_prevote * signed_prevote

type mainvote = {
  mv_round : int;
  mv_value : mainv;
  mv_just : mainvote_just;
  mv_share : Keyring.cert_share;
}

type msg =
  | Support of bool * Keyring.cert_share
  | Prevote of prevote
  | Mainvote of mainvote
  | Coin_share of int * Coin.share list
  | Decide of int * bool * Keyring.cert

type round_state = {
  mutable prevotes : (int * prevote) list;  (* validated, one per source *)
  mutable mains : (int * mainvote) list;
  mutable coin_shares : (int * Coin.share list) list;
  mutable own_coin : Coin.share list option;  (* our share of coin r *)
  mutable coin : int option;
  mutable sent_prevote : bool;
  mutable sent_main : bool;
}

type t = {
  io : msg Proto_io.t;
  tag : string;
  on_decide : bool -> unit;
  mutable input : bool option;
  mutable my_supports : bool list;  (* values I have SUPPORTed *)
  mutable sup_shares : (bool * int * Keyring.cert_share) list;
  mutable round : int;
  rounds : (int, round_state) Hashtbl.t;
  mutable decided : bool option;
  mutable deferred : (int * msg) list;  (* waiting for a coin value *)
  mutable sp_round : int;  (* open trace span of the current round *)
}

(* ---------- statements -------------------------------------------- *)

let sup_stmt t b = Ro.encode [ "abba-sup"; t.tag; string_of_bool b ]

let pre_stmt t r b =
  Ro.encode [ "abba-pre"; t.tag; string_of_int r; string_of_bool b ]

let main_stmt t r v =
  let vs = match v with Value b -> string_of_bool b | Abstain -> "abstain" in
  Ro.encode [ "abba-main"; t.tag; string_of_int r; vs ]

let coin_name t r = Ro.encode [ "abba-coin"; t.tag; string_of_int r ]

(* ---------- creation ----------------------------------------------- *)

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
    let rs =
      { prevotes = [];
        mains = [];
        coin_shares = [];
        own_coin = None;
        coin = None;
        sent_prevote = false;
        sent_main = false }
    in
    Hashtbl.add t.rounds r rs;
    rs

let create ~(io : msg Proto_io.t) ~tag ~on_decide =
  { io;
    tag;
    on_decide;
    input = None;
    my_supports = [];
    sup_shares = [];
    round = 1;
    rounds = Hashtbl.create 4;
    decided = None;
    deferred = [];
    sp_round = 0 }

let obs t = t.io.Proto_io.obs

(* Round in which this party currently works; after a decision, the
   round the decision was reached in (used by the expected-constant-
   rounds experiment R1). *)
let current_round t = t.round

(* ---------- validation --------------------------------------------- *)

let supporters t b =
  List.fold_left
    (fun acc (v, p, _) -> if v = b then Pset.add p acc else acc)
    Pset.empty t.sup_shares

let support_cert_ok t b (sc : support_cert) : bool =
  let sc = List.sort_uniq (fun (a, _) (b, _) -> compare a b) sc in
  let endorsers =
    List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty sc
  in
  AS.two_cover (Proto_io.structure t.io) endorsers
  && List.for_all
       (fun (p, share) ->
         Proto_io.verify_signature t.io ~party:p (sup_stmt t b) share)
       sc

(* [`Defer] means the justification refers to a coin value this party
   does not know yet; the message is retried once the coin is learned. *)
let rec prevote_ok t ~src (pv : prevote) : [ `Valid | `Invalid | `Defer ] =
  if
    not
      (Proto_io.verify_signature t.io ~party:src
         (pre_stmt t pv.pv_round pv.pv_vote) pv.pv_share)
  then `Invalid
  else
    match pv.pv_just with
    | J_support sc ->
      if pv.pv_round = 1 && support_cert_ok t pv.pv_vote sc then `Valid
      else `Invalid
    | J_pre_cert c ->
      if
        pv.pv_round >= 2
        && Proto_io.verify_cert t.io (pre_stmt t (pv.pv_round - 1) pv.pv_vote) c
      then `Valid
      else `Invalid
    | J_coin c ->
      if
        pv.pv_round >= 2
        && Proto_io.verify_cert t.io (main_stmt t (pv.pv_round - 1) Abstain) c
      then begin
        match (round_state t (pv.pv_round - 1)).coin with
        | None -> `Defer
        | Some coin -> if pv.pv_vote = (coin = 1) then `Valid else `Invalid
      end
      else `Invalid

and mainvote_ok t ~src (mv : mainvote) : [ `Valid | `Invalid | `Defer ] =
  if
    not
      (Proto_io.verify_signature t.io ~party:src
         (main_stmt t mv.mv_round mv.mv_value) mv.mv_share)
  then `Invalid
  else
    match (mv.mv_value, mv.mv_just) with
    | Value b, J_quorum c ->
      if Proto_io.verify_cert t.io (pre_stmt t mv.mv_round b) c then `Valid
      else `Invalid
    | Abstain, J_conflict (s1, s2) ->
      if
        s1.sp_pv.pv_round = mv.mv_round
        && s2.sp_pv.pv_round = mv.mv_round
        && s1.sp_pv.pv_vote <> s2.sp_pv.pv_vote
      then begin
        match (prevote_ok t ~src:s1.sp_src s1.sp_pv,
               prevote_ok t ~src:s2.sp_src s2.sp_pv)
        with
        | `Valid, `Valid -> `Valid
        | `Defer, (`Valid | `Defer) | `Valid, `Defer -> `Defer
        | `Invalid, _ | _, `Invalid -> `Invalid
      end
      else `Invalid
    | Value _, J_conflict _ | Abstain, J_quorum _ -> `Invalid

(* ---------- helpers ------------------------------------------------ *)

let endorsers l = List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty l

let pre_shares_for rs b =
  List.filter_map
    (fun (p, pv) -> if pv.pv_vote = b then Some (p, pv.pv_share) else None)
    rs.prevotes

let main_shares_for rs v =
  List.filter_map
    (fun (p, mv) -> if mv.mv_value = v then Some (p, mv.mv_share) else None)
    rs.mains

let broadcast_support t b =
  if not (List.mem b t.my_supports) then begin
    t.my_supports <- b :: t.my_supports;
    let share = Proto_io.sign t.io (sup_stmt t b) in
    t.io.Proto_io.broadcast (Support (b, share))
  end

let established t b =
  AS.two_cover (Proto_io.structure t.io) (supporters t b)

let my_support_cert t b : support_cert =
  List.filter_map
    (fun (v, p, s) -> if v = b then Some (p, s) else None)
    t.sup_shares

let send_prevote t r b just =
  let rs = round_state t r in
  if not rs.sent_prevote then begin
    rs.sent_prevote <- true;
    (* One span per round, pre-vote to pre-vote: closing the previous
       round's span here makes round latencies directly readable. *)
    Obs.span_end (obs t) t.sp_round;
    t.sp_round <-
      Obs.span_begin (obs t) ~party:t.io.Proto_io.me ~tag:t.tag ~layer:"abba"
        ~detail:(Printf.sprintf "r%d vote=%b" r b)
        "round";
    let share = Proto_io.sign t.io (pre_stmt t r b) in
    t.io.Proto_io.broadcast
      (Prevote { pv_round = r; pv_vote = b; pv_just = just; pv_share = share })
  end

let send_main t r v just =
  let rs = round_state t r in
  if not rs.sent_main then begin
    rs.sent_main <- true;
    let share = Proto_io.sign t.io (main_stmt t r v) in
    t.io.Proto_io.broadcast
      (Mainvote { mv_round = r; mv_value = v; mv_just = just; mv_share = share });
    (* Coin r is read only behind a big-quorum of abstain main-votes,
       whose honest members all release their share here; a value
       main-voter's share would never be needed.  The share follows
       the main-vote, once the round's certifiable value is fixed, as
       in CKS00. *)
    if v = Abstain then begin
      let shares =
        Coin.generate_share t.io.Proto_io.keyring.Keyring.coin
          ~party:t.io.Proto_io.me ~name:(coin_name t r)
      in
      rs.own_coin <- Some shares;
      t.io.Proto_io.broadcast (Coin_share (r, shares))
    end
  end

(* A decided instance handles no further message ([handle] runs only
   while [decided = None]), so nothing reads its vote tables again:
   they go at the decision, which keeps only the bit and the round. *)
let finish t b =
  if t.decided = None then begin
    t.decided <- Some b;
    Hashtbl.reset t.rounds;
    t.sup_shares <- [];
    t.deferred <- [];
    t.my_supports <- [];
    Obs.span_end (obs t) t.sp_round;
    t.sp_round <- 0;
    Obs.point (obs t) ~party:t.io.Proto_io.me ~tag:t.tag ~layer:"abba"
      ~detail:(string_of_bool b) "decide";
    t.on_decide b
  end

(* ---------- progress ------------------------------------------------ *)

let rec step t =
  if t.decided = None then begin
    let r = t.round in
    let rs = round_state t r in
    (* Round 1 pre-vote: wait until some value is established by the
       SUPPORT phase, preferring our own input. *)
    if r = 1 && not rs.sent_prevote then begin
      let candidates =
        (match t.input with Some b -> [ b; not b ] | None -> [])
      in
      match List.find_opt (established t) candidates with
      | Some b -> send_prevote t 1 b (J_support (my_support_cert t b))
      | None -> ()
    end;
    (* Main vote: a big-quorum pre-certificate for one value, or a
       conflict between two validly justified pre-votes. *)
    if rs.sent_prevote && not rs.sent_main then begin
      let kr = t.io.Proto_io.keyring in
      let try_value b =
        let shares = pre_shares_for rs b in
        if Proto_io.big_quorum t.io (endorsers shares) then
          Keyring.make_cert kr (pre_stmt t r b) shares
        else None
      in
      match try_value true with
      | Some c -> send_main t r (Value true) (J_quorum c)
      | None ->
        (match try_value false with
        | Some c -> send_main t r (Value false) (J_quorum c)
        | None ->
          let find b = List.find_opt (fun (_, pv) -> pv.pv_vote = b) rs.prevotes in
          (match (find true, find false) with
          | Some (p1, v1), Some (p2, v2) ->
            send_main t r Abstain
              (J_conflict
                 ({ sp_src = p1; sp_pv = v1 }, { sp_src = p2; sp_pv = v2 }))
          | _, None | None, _ -> ()))
    end;
    (* Decision / round advance on a big-quorum of main votes. *)
    if rs.sent_main then begin
      let kr = t.io.Proto_io.keyring in
      let all = endorsers (List.map (fun (p, mv) -> (p, mv.mv_share)) rs.mains) in
      let decide_value b =
        let shares = main_shares_for rs (Value b) in
        if Proto_io.big_quorum t.io (endorsers shares) then
          Keyring.make_cert kr (main_stmt t r (Value b)) shares
        else None
      in
      match decide_value true with
      | Some c ->
        t.io.Proto_io.broadcast (Decide (r, true, c));
        finish t true
      | None ->
        (match decide_value false with
        | Some c ->
          t.io.Proto_io.broadcast (Decide (r, false, c));
          finish t false
        | None ->
          if Proto_io.big_quorum t.io all then begin
            (* No decision: advance with a seen value or with the coin. *)
            let valued =
              List.find_opt
                (fun (_, mv) -> match mv.mv_value with Value _ -> true | Abstain -> false)
                rs.mains
            in
            match valued with
            | Some (_, mv) ->
              (match (mv.mv_value, mv.mv_just) with
              | Value b, J_quorum c ->
                t.round <- r + 1;
                send_prevote t (r + 1) b (J_pre_cert c);
                step t
              | (Value _ | Abstain), _ -> assert false)
            | None ->
              (* All abstain: need the coin. *)
              (match rs.coin with
              | None -> ()
              | Some coin ->
                let shares = main_shares_for rs Abstain in
                (match Keyring.make_cert kr (main_stmt t r Abstain) shares with
                | None -> assert false  (* all mains abstained, quorum holds *)
                | Some c ->
                  t.round <- r + 1;
                  send_prevote t (r + 1) (coin = 1) (J_coin c);
                  step t))
          end)
    end
  end

(* ---------- coin ----------------------------------------------------- *)

let rec try_combine_coin t r =
  let rs = round_state t r in
  if rs.coin = None then begin
    let avail =
      List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty rs.coin_shares
    in
    match
      Coin.combine
        ?own:(Option.map (fun s -> (t.io.Proto_io.me, s)) rs.own_coin)
        t.io.Proto_io.keyring.Keyring.coin ~name:(coin_name t r) ~avail
        rs.coin_shares ()
    with
    | None -> ()
    | Some v ->
      rs.coin <- Some v;
      (* Retry deferred messages that were waiting for this coin. *)
      let waiting = t.deferred in
      t.deferred <- [];
      List.iter (fun (src, m) -> handle t ~src m) waiting
  end

(* ---------- message handling --------------------------------------- *)

and handle t ~src msg =
  if t.decided = None then begin
    match msg with
    | Support (b, share) ->
      if
        (not (List.exists (fun (v, p, _) -> v = b && p = src) t.sup_shares))
        && Proto_io.verify_signature t.io ~party:src (sup_stmt t b) share
      then begin
        t.sup_shares <- (b, src, share) :: t.sup_shares;
        (* Amplify: once a set surely containing an honest party supports
           b, adopt it too (the MMR-style dissemination step). *)
        if AS.contains_honest (Proto_io.structure t.io) (supporters t b) then
          broadcast_support t b;
        step t
      end
    | Prevote pv ->
      let rs = round_state t pv.pv_round in
      if not (List.mem_assoc src rs.prevotes) then begin
        match prevote_ok t ~src pv with
        | `Valid ->
          rs.prevotes <- (src, pv) :: rs.prevotes;
          step t
        | `Defer -> t.deferred <- (src, msg) :: t.deferred
        | `Invalid -> ()
      end
    | Mainvote mv ->
      let rs = round_state t mv.mv_round in
      if not (List.mem_assoc src rs.mains) then begin
        match mainvote_ok t ~src mv with
        | `Valid ->
          rs.mains <- (src, mv) :: rs.mains;
          step t
        | `Defer -> t.deferred <- (src, msg) :: t.deferred
        | `Invalid -> ()
      end
    | Coin_share (r, shares) ->
      let rs = round_state t r in
      if
        (not (List.mem_assoc src rs.coin_shares))
        (* Accept on shape alone; [Coin.combine] verifies the proofs in
           one batch and prunes attributed-bad parties. *)
        && Coin.check_shape t.io.Proto_io.keyring.Keyring.coin ~party:src
             shares
      then begin
        rs.coin_shares <- (src, shares) :: rs.coin_shares;
        try_combine_coin t r;
        step t
      end
    | Decide (r, b, cert) ->
      if
        Proto_io.verify_cert t.io (main_stmt t r (Value b)) cert
      then begin
        (* Transferable: re-broadcast once so that every honest party
           terminates even if it lags several rounds behind. *)
        t.io.Proto_io.broadcast (Decide (r, b, cert));
        finish t b
      end
  end

let propose t b =
  if t.input = None then begin
    t.input <- Some b;
    broadcast_support t b;
    step t
  end

(* Approximate wire sizes (bytes) for the message-complexity benches. *)
let msg_size kr m =
  let share_size = 72 in
  let cert_size = Keyring.cert_size kr in
  let just_size = function
    | J_support sc -> List.length sc * share_size
    | J_pre_cert c | J_coin c -> cert_size c
  in
  match m with
  | Support _ -> 16 + share_size
  | Prevote pv -> 24 + share_size + just_size pv.pv_just
  | Mainvote mv ->
    24 + share_size
    + (match mv.mv_just with
      | J_quorum c -> cert_size c
      | J_conflict (a, b) ->
        (2 * (24 + share_size))
        + just_size a.sp_pv.pv_just
        + just_size b.sp_pv.pv_just)
  | Coin_share (_, shares) -> 16 + (List.length shares * 150)
  | Decide (_, _, c) -> 24 + cert_size c

(* Short rendering for simulator traces. *)
let msg_summary = function
  | Support (b, _) -> Printf.sprintf "abba.SUPPORT(%b)" b
  | Prevote pv -> Printf.sprintf "abba.PREVOTE(r%d,%b)" pv.pv_round pv.pv_vote
  | Mainvote mv ->
    Printf.sprintf "abba.MAINVOTE(r%d,%s)" mv.mv_round
      (match mv.mv_value with Value b -> string_of_bool b | Abstain -> "abstain")
  | Coin_share (r, _) -> Printf.sprintf "abba.COIN(r%d)" r
  | Decide (r, b, _) -> Printf.sprintf "abba.DECIDE(r%d,%b)" r b
