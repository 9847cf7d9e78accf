(* Multi-valued validated Byzantine agreement (Cachin, Kursawe, Petzold,
   Shoup), the engine of the atomic broadcast protocol (paper, Section 3).

   "External validity": agreement is on values from an arbitrary domain,
   constrained by a global predicate every honest party can evaluate, so
   the decided value is always acceptable to honest parties — this rules
   out deciding a value nobody proposed.

   Structure:
   1. every party consistent-broadcasts its (validated) proposal;
   2. once a big-quorum of proposals is delivered, the parties release
      shares of a fresh threshold coin whose value selects a random
      permutation of the candidates (so the adversary cannot aim its
      corruptions at the candidates that will be examined first);
   3. the candidates are examined in permuted order, one binary ABBA per
      candidate with input "do I hold this candidate's proposal?";
      parties voting 1 first forward the transferable consistent-
      broadcast certificate, so by ABBA validity a 1-decision implies
      the proposal is held by an honest party and reaches everyone;
   4. the first 1-decision selects the agreed value.  If a whole sweep
      decides 0 (possible when honest commit sets are disjoint enough),
      the loop re-examines candidates in further attempts; meanwhile
      the forwarded certificates have propagated, so a later attempt
      has every honest party voting 1.  Expected number of ABBA
      instances is constant. *)

type msg =
  | Proposal_cbc of int * Cbc.msg  (* proposer, embedded CBC *)
  | Perm_share of Coin.share list
  | Abba_msg of int * Abba.msg  (* position in the examination sequence *)
  | Final_fwd of int * string * Keyring.cert  (* candidate, payload, cert *)

type t = {
  io : msg Proto_io.t;
  tag : string;
  validate : string -> bool;
  on_decide : winner:int -> string -> unit;
  cbcs : Cbc.t array;
  mutable proposed : bool;  (* our proposal CBC is out *)
  mutable proposals : (int * (string * Keyring.cert)) list;  (* delivered *)
  mutable own_perm : Coin.share list option;
      (* our permutation-coin share, out once our commit quorum holds *)
  mutable perm_shares : (int * Coin.share list) list;
  mutable perm : int array option;
  abbas : (int, Abba.t) Hashtbl.t;  (* position -> instance *)
  decisions : (int, bool) Hashtbl.t;  (* position -> ABBA decision *)
  forwarded : (int, unit) Hashtbl.t;  (* candidates whose cert we forwarded *)
  mutable position : int;  (* first position not yet decided *)
  mutable winner : int option;
  mutable decided : (int * string) option;
  mutable sp_inst : int;  (* open trace span; 0 = none *)
}

let cbc_tag t proposer = t.tag ^ "/prop/" ^ string_of_int proposer
let perm_coin_name t = Ro.encode [ "vba-perm"; t.tag ]

let n t = Proto_io.n t.io

let rec create ~(io : msg Proto_io.t) ~tag ?(validate = fun _ -> true)
    ~on_decide () : t =
  let t_ref = ref None in
  let cbcs =
    Array.init (Proto_io.n io) (fun proposer ->
        Cbc.create
          ~io:
            (Proto_io.embed ~layer:"cbc"
               ~bytes:(Cbc.msg_size io.Proto_io.keyring) io
               ~wrap:(fun m -> Proposal_cbc (proposer, m)))
          ~tag:(tag ^ "/prop/" ^ string_of_int proposer)
          ~sender:proposer ~validate
          ~deliver:(fun payload cert ->
            match !t_ref with
            | Some t -> on_proposal t proposer payload cert
            | None -> ())
          ())
  in
  let t =
    { io;
      tag;
      validate;
      on_decide;
      cbcs;
      proposed = false;
      proposals = [];
      own_perm = None;
      perm_shares = [];
      perm = None;
      abbas = Hashtbl.create 8;
      decisions = Hashtbl.create 8;
      forwarded = Hashtbl.create 8;
      position = 0;
      winner = None;
      decided = None;
      sp_inst = 0 }
  in
  t_ref := Some t;
  t

and on_proposal t proposer payload cert =
  if not (List.mem_assoc proposer t.proposals) then begin
    t.proposals <- (proposer, (payload, cert)) :: t.proposals;
    step t
  end

and abba_at t position : Abba.t =
  match Hashtbl.find_opt t.abbas position with
  | Some a -> a
  | None ->
    let a =
      Abba.create
        ~io:
          (Proto_io.embed ~layer:"abba"
             ~bytes:(Abba.msg_size t.io.Proto_io.keyring) t.io
             ~wrap:(fun m -> Abba_msg (position, m)))
        ~tag:(t.tag ^ "/abba/" ^ string_of_int position)
        ~on_decide:(fun b -> on_abba_decision t position b)
    in
    Hashtbl.add t.abbas position a;
    a

and on_abba_decision t position b =
  if not (Hashtbl.mem t.decisions position) then begin
    Hashtbl.replace t.decisions position b;
    step t
  end

and candidate_of t position =
  match t.perm with
  | None -> None
  | Some perm -> Some perm.(position mod Array.length perm)

and step t =
  if t.decided = None then begin
    (* Release the permutation-coin share once our commit quorum holds. *)
    let delivered =
      List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty t.proposals
    in
    if t.own_perm = None && Proto_io.big_quorum t.io delivered then begin
      let shares =
        Coin.generate_share t.io.Proto_io.keyring.Keyring.coin
          ~party:t.io.Proto_io.me ~name:(perm_coin_name t)
      in
      t.own_perm <- Some shares;
      t.io.Proto_io.broadcast (Perm_share shares)
    end;
    (* Walk the examination sequence. *)
    match t.perm with
    | None -> ()
    | Some _ ->
      (match t.winner with
      | Some c ->
        (* Waiting for the winning proposal (it is held by at least one
           honest party and forwarded, so it arrives). *)
        (match List.assoc_opt c t.proposals with
        | Some (payload, _) ->
          t.decided <- Some (c, payload);
          let obs = t.io.Proto_io.obs in
          Obs.span_end obs t.sp_inst;
          t.sp_inst <- 0;
          Obs.point obs ~party:t.io.Proto_io.me ~src:c ~tag:t.tag
            ~layer:"vba" "decide";
          t.on_decide ~winner:c payload
        | None -> ())
      | None ->
        let rec walk pos =
          match Hashtbl.find_opt t.decisions pos with
          | Some true ->
            t.position <- pos;
            (match candidate_of t pos with
            | Some c ->
              t.winner <- Some c;
              step t
            | None -> ())
          | Some false -> walk (pos + 1)
          | None ->
            t.position <- pos;
            let a = abba_at t pos in
            (match candidate_of t pos with
            | None -> ()
            | Some c ->
              let input =
                match List.assoc_opt c t.proposals with
                | Some (payload, cert) ->
                  (* Forward the transferable proposal (once) before
                     voting 1, so 0-attempts converge and the winner
                     propagates to every honest party. *)
                  if not (Hashtbl.mem t.forwarded c) then begin
                    Hashtbl.replace t.forwarded c ();
                    t.io.Proto_io.broadcast (Final_fwd (c, payload, cert))
                  end;
                  true
                | None -> false
              in
              Abba.propose a input)
        in
        walk t.position)
  end

and try_combine_perm t =
  if t.perm = None then begin
    let avail =
      List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty t.perm_shares
    in
    match
      Coin.combine
        ?own:(Option.map (fun s -> (t.io.Proto_io.me, s)) t.own_perm)
        t.io.Proto_io.keyring.Keyring.coin ~name:(perm_coin_name t) ~avail
        t.perm_shares ~bits:30 ()
    with
    | None -> ()
    | Some seed ->
      (* Fisher-Yates driven by the coin: same permutation everywhere. *)
      let rng = Prng.create ~seed in
      let perm = Array.init (n t) Fun.id in
      for i = n t - 1 downto 1 do
        let j = Prng.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      t.perm <- Some perm;
      step t
  end

(* Once only: a second proposal would re-broadcast our CBC with another
   value, which parties that echoed the first never echo. *)
let propose t (value : string) =
  if not t.proposed then begin
    assert (t.validate value);
    t.proposed <- true;
    if t.sp_inst = 0 && t.decided = None then
      t.sp_inst <-
        Obs.span_begin t.io.Proto_io.obs ~party:t.io.Proto_io.me ~tag:t.tag
          ~layer:"vba" "instance";
    Cbc.broadcast t.cbcs.(t.io.Proto_io.me) value
  end

let handle t ~src msg =
  match msg with
  | Proposal_cbc (proposer, m) ->
    if proposer >= 0 && proposer < n t then
      Cbc.handle t.cbcs.(proposer) ~src m
  | Perm_share shares ->
    if
      (not (List.mem_assoc src t.perm_shares))
      (* Shape check at receipt, batched proof check at combine time
         (with attributed pruning). *)
      && Coin.check_shape t.io.Proto_io.keyring.Keyring.coin ~party:src
           shares
    then begin
      t.perm_shares <- (src, shares) :: t.perm_shares;
      try_combine_perm t
    end
  | Abba_msg (position, m) ->
    if position >= 0 && position < 64 * n t then
      Abba.handle (abba_at t position) ~src m
  | Final_fwd (candidate, payload, cert) ->
    if
      candidate >= 0 && candidate < n t
      && (not (List.mem_assoc candidate t.proposals))
      && t.validate payload
      && Cbc.check_transferred t.io ~tag:(cbc_tag t candidate)
           ~sender:candidate payload cert
    then begin
      t.proposals <- (candidate, (payload, cert)) :: t.proposals;
      step t
    end

let permutation t = t.perm

let msg_size kr = function
  | Proposal_cbc (_, m) -> 8 + Cbc.msg_size kr m
  | Perm_share shares -> 8 + (List.length shares * 150)
  | Abba_msg (_, m) -> 8 + Abba.msg_size kr m
  | Final_fwd (_, payload, cert) ->
    16 + String.length payload + Keyring.cert_size kr cert

let msg_summary = function
  | Proposal_cbc (p, m) -> Printf.sprintf "vba.prop[%d]/%s" p (Cbc.msg_summary m)
  | Perm_share _ -> "vba.PERM-COIN"
  | Abba_msg (pos, m) -> Printf.sprintf "vba.cand[%d]/%s" pos (Abba.msg_summary m)
  | Final_fwd (c, p, _) -> Printf.sprintf "vba.FWD[%d](%d B)" c (String.length p)

(* Release the instance's agreement state (proposals, permutation
   shares, ABBA children and their vote tables).  The terminal result
   survives; everything else is what checkpoint GC wants back. *)
let retire t =
  Hashtbl.iter (fun _ a -> Abba.retire a) t.abbas;
  Hashtbl.reset t.abbas;
  Hashtbl.reset t.decisions;
  Hashtbl.reset t.forwarded;
  t.proposals <- [];
  t.perm_shares <- [];
  t.perm <- None
