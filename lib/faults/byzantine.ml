(* Reusable Byzantine behaviours, installed over a deployed party's
   honest handler.

   The simulator models full corruption by handler replacement: a
   corrupted party's incoming messages are routed to arbitrary code that
   holds the shared keyring (so it can sign, share and equivocate with
   the party's real keys) and the simulator handle (so it can send
   anything to anyone).  Before this module, every test hand-rolled that
   code inline; here the recurring shapes are named, parameterized and
   composable, and a whole corruptible set from the adversary structure
   can be corrupted at once — which is exactly the quantification the
   paper's Section 2 model asks for ("for every set in the structure"). *)

(* Behaviours operate at the payload level, below any link endpoint:
   the simulator's wire carries ['msg Link.frame], and a behaviour's
   own sends travel as [Link.Raw] — the adversary controls its local
   transport and is free to bypass its own link sequencing, while its
   forged payloads still reach every honest handler (link-off unwraps
   [Raw] directly; link-on delivers it as an unsequenced frame). *)
type 'msg ctx = {
  sim : 'msg Link.frame Sim.t;
  keyring : Keyring.t;
  party : int;
  rng : Prng.t;
}

type 'msg t = 'msg ctx -> 'msg Sim.handler -> 'msg Sim.handler

(* ---------- generic behaviours -------------------------------------- *)

let honest : 'msg t = fun _ctx h -> h

let silent : 'msg t = fun _ctx _honest ~src:_ _msg -> ()

let crash_at time : 'msg t =
 fun ctx honest ->
  let delay = Float.max 0.0 (time -. Sim.clock ctx.sim) in
  Sim.set_timer ctx.sim ctx.party ~delay (fun () ->
      Sim.crash ctx.sim ctx.party);
  honest

let replayer () : 'msg t =
 fun ctx honest ->
  let used = ref 0 in
  fun ~src msg ->
    honest ~src msg;
    if !used < 64 then begin
      incr used;
      Sim.broadcast ctx.sim ~src:ctx.party (Link.Raw msg)
    end

let injector ~budget forge : 'msg t =
 fun ctx honest ->
  let used = ref 0 in
  fun ~src msg ->
    honest ~src msg;
    if !used < budget then begin
      incr used;
      List.iter
        (fun (dst, m) -> Sim.send ctx.sim ~src:ctx.party ~dst (Link.Raw m))
        (forge ctx ~src msg)
    end

let equivocator ~budget forge : 'msg t =
 fun ctx _honest ->
  let used = ref 0 in
  fun ~src msg ->
    if !used < budget then
      match forge ctx ~src msg with
      | None -> ()
      | Some (ma, mb) ->
        incr used;
        let n = Sim.n ctx.sim in
        for dst = 0 to n - 1 do
          Sim.send ctx.sim ~src:ctx.party ~dst
            (Link.Raw (if 2 * dst < n then ma else mb))
        done

let mutator mutate : 'msg t =
 fun ctx honest ~src msg ->
  match mutate ctx ~src msg with
  | None -> honest ~src msg
  | Some msg' -> honest ~src msg'

let compose a b : 'msg t = fun ctx honest -> a ctx (b ctx honest)

(* ---------- installation -------------------------------------------- *)

let context ~sim ~keyring ~rng party =
  { sim; keyring; party; rng = Prng.split rng }

(* Post-deployment corruption intercepts at the frame level, so under a
   link-on deployment it also swallows the party's ack machinery (the
   behaviour sees payloads, never acks): peers keep retransmitting to it
   until their windows fill and back-pressure engages — i.e. [corrupt]
   models ack withholding as a side effect.  Campaigns use {!wrap_of}
   instead, which corrupts below the link at install time. *)
let corrupt ~sim ~keyring ~seed ~set behavior =
  let rng = Prng.create ~seed in
  Pset.iter
    (fun party ->
      Sim.wrap_handler sim party (fun installed ->
          let honest ~src m = installed ~src (Link.Raw m) in
          let wrapped =
            behavior (context ~sim ~keyring ~rng party) honest
          in
          fun ~src frame ->
            match frame with
            | Link.Raw m | Link.Data { payload = m; _ } -> wrapped ~src m
            | Link.Ack _ -> ()))
    set

let wrap_of ~sim ~keyring ~seed ~set behavior =
  let rng = Prng.create ~seed in
  fun party h ->
    if Pset.mem party set then behavior (context ~sim ~keyring ~rng party) h
    else h

(* ---------- protocol-specific forgeries ------------------------------ *)

(* Behaviours against the binary-agreement layer.  The forged objects go
   through the real signing paths of the shared keyring, so they pass
   every check that does not bind them to a statement — precisely the
   attacks the justification machinery must (and does) reject. *)
module For_abba = struct
  let round_of = function
    | Abba.Support _ -> Some 1
    | Abba.Prevote pv -> Some pv.Abba.pv_round
    | Abba.Mainvote mv -> Some mv.Abba.mv_round
    | Abba.Coin_share (r, _) -> Some r
    | Abba.Decide _ -> None

  (* Structurally valid coin shares whose group elements are garbled, so
     the DLEQ proofs fail: honest parties must filter them out and still
     assemble the coin from the honest shares. *)
  let coin_forger ~tag () : Abba.msg t =
    injector ~budget:32 (fun ctx ~src:_ msg ->
        match round_of msg with
        | None -> []
        | Some r ->
          let g = ctx.keyring.Keyring.group in
          let name =
            Ro.encode [ "abba-coin"; tag; string_of_int r ]
          in
          let shares =
            Coin.generate_share ctx.keyring.Keyring.coin ~party:ctx.party
              ~name
            |> List.map (fun (s : Coin.share) ->
                   { s with
                     Coin.value =
                       Schnorr_group.mul g s.Coin.value g.Schnorr_group.g })
          in
          List.init (Sim.n ctx.sim) (fun dst ->
              (dst, Abba.Coin_share (r, shares))))

  (* Genuinely signed, conflicting SUPPORT endorsements: true to one half
     of the parties, false to the other.  Quorum intersection must keep
     at most one value certifiable. *)
  let support_equivocator ~tag () : Abba.msg t =
    equivocator ~budget:4 (fun ctx ~src:_ _msg ->
        let share b =
          Keyring.cert_share ctx.keyring ~party:ctx.party
            (Ro.encode [ "abba-sup"; tag; string_of_bool b ])
        in
        Some (Abba.Support (true, share true), Abba.Support (false, share false)))

  (* coin_forger is the outer layer: its injector calls through to the
     support equivocator (which never runs honest logic) and then floods
     its forged shares — so both attacks are live. *)
  let byzantine ~tag () : Abba.msg t =
    compose (coin_forger ~tag ()) (support_equivocator ~tag ())
end

(* Behaviours against the atomic-broadcast layer. *)
module For_abc = struct
  (* Validly signed, conflicting proposals for the current round: payload
     A to one half, payload B to the other.  Both pass the signature
     check, so honest parties may hold different views of the corrupted
     party's proposal — agreement must come from the VBA layer alone. *)
  let proposal_equivocator ~tag () : Abc.msg t =
    equivocator ~budget:8 (fun ctx ~src:_ msg ->
        match msg with
        | Abc.Proposal (r, _, _) ->
          let sign payload =
            Schnorr_sig.to_bytes ctx.keyring.Keyring.group
              (Keyring.sign ctx.keyring ~party:ctx.party
                 (Ro.encode [ "abc-prop"; tag; string_of_int r; payload ]))
          in
          let pa = Printf.sprintf "equiv-a-%d" ctx.party
          and pb = Printf.sprintf "equiv-b-%d" ctx.party in
          Some
            (Abc.Proposal (r, pa, sign pa), Abc.Proposal (r, pb, sign pb))
        | Abc.Request _ | Abc.Vba_msg _ -> None)

  (* Replays captured proposals into later rounds under the original
     (now round-mismatched) signature; the round-bound statement must
     make every replay invalid. *)
  let proposal_replayer () : Abc.msg t =
    injector ~budget:32 (fun ctx ~src:_ msg ->
        match msg with
        | Abc.Proposal (r, payload, sg) ->
          List.init (Sim.n ctx.sim) (fun dst ->
              (dst, Abc.Proposal (r + 1, payload, sg)))
        | Abc.Request _ | Abc.Vba_msg _ -> [])

  (* replayer outer, equivocator inner, for the same reason as
     [For_abba.byzantine]. *)
  let byzantine ~tag () : Abc.msg t =
    compose (proposal_replayer ()) (proposal_equivocator ~tag ())
end

(* Behaviours against the recovery layer's state-transfer path. *)
module For_recovery = struct
  (* Answers every catch-up [Fetch] with a forged [State]: a fabricated
     digest history, a garbage "certificate" and a forged suffix,
     claiming a round ahead of everyone.  The fetcher must reject the
     reply on certificate verification and install from the remaining
     honest peers.  Everything else runs the honest logic — the forger
     stays a live, otherwise-useful replica, which is the strongest
     position for this attack (its reply races the honest ones).  The
     zero resume points are ignored by [Link.rejoin] as malformed, so
     the forgery cannot even desynchronize the victim's channel. *)
  let forged_server () : Recovery.msg t =
   fun ctx honest ->
    let used = ref 0 in
    fun ~src msg ->
      match msg with
      | Recovery.Fetch { epoch } when !used < 64 ->
        incr used;
        let digests =
          List.init 4 (fun i ->
              Sha256.digest (Printf.sprintf "forged-%d-%d" ctx.party i))
        in
        let snap = Codec.encode_snapshot ~round:8 ~app:"" ~digests in
        let ck =
          Codec.encode_ckpt ~snapshot:snap ~cert:(String.make 48 '\x2a')
        in
        Sim.send ctx.sim ~src:ctx.party ~dst:src
          (Link.Raw
             (Recovery.State
                {
                  epoch;
                  ck;
                  suffix = [ Printf.sprintf "forged-tx-%d" ctx.party ];
                  round = 9;
                  expect = 0;
                  start = 0;
                }))
      | _ -> honest ~src msg
end

(* Behaviours against the replicated services. *)
module For_service = struct
  (* Answers every client request at once with a denial signed with the
     party's own reply share, and runs no honest logic: the client's
     share check and the threshold signature must keep the forgery out
     of the answer it accepts. *)
  let forged_denial : Service.msg t =
   fun ctx _honest ~src:_ msg ->
    match msg with
    | Service.Request { client; body } ->
      let req_digest = Sha256.digest body in
      let response = Codec.encode [ "denied"; "forged" ] in
      let share =
        Keyring.service_sign_share ctx.keyring ~party:ctx.party
          (Service.response_statement ~req_digest ~response)
      in
      Sim.send ctx.sim ~src:ctx.party ~dst:client
        (Link.Raw
           (Service.Response
              (Codec.encode_svc_reply ~fast:false ~req_digest
                 ~server:ctx.party ~response
                 ~share:(Keyring.sig_share_to_bytes ctx.keyring share))))
    | Service.Query _ | Service.Engine _ | Service.Response _ -> ()
end
