(* Deployment glue: instantiate one protocol node per server on top of
   the network simulator.

   The simulator's wire type is ['msg Link.frame] — every deployment
   frames its traffic, but with the link layer off (the default) each
   message travels as [Link.Raw], an unsequenced passthrough that the
   receiving side unwraps directly.  That keeps the message count, the
   delivery order and hence every PRNG draw identical to an unframed
   transport: link-off deployments behave bit-for-bit like the seed.
   Passing [?link] interposes a {!Link} endpoint per party, which
   sequences, acks and retransmits so that lossy chaos no longer costs
   liveness.

   Every deployment — these conveniences and the Recovery, Epoch and
   Service layers — attaches its parties through [attach], which also
   owns revive (recover the slot, attach a fresh honest node) and the
   ABC stall probe; a layer supplies only its node constructor, its
   handler and its own post-revive step.

   The returned array holds every party's instance; tests and
   experiments corrupt a party by crashing it in the simulator, by
   replacing its handler with a malicious one ([Sim.set_handler] /
   [Sim.wrap_handler]), or — at deployment time — through the [?wrap]
   hook below, which the Byzantine behaviour library (lib/faults) uses.
   [wrap] operates at the payload level, below any link endpoint: a
   corrupted party still runs the link machinery (acks, dedup), because
   the link is transport infrastructure, not protocol logic — withheld
   acks are modelled separately, as chaos loss towards the victim.  All
   of these model full Byzantine corruption: the adversary even gets
   the party's keyring secrets, since the keyring record is shared. *)

(* One party's attachment, the only place a node meets the transport.
   Per party, in this order: the link endpoint (link on), the io, the
   node, the handler — the wrap applies only to the first incarnation
   ([wrapped]); a revived party is honest.  [unsequenced] is the Raw
   path around the endpoint: with the link off it is the send itself. *)
type ('msg, 'node) deployment = {
  sim : 'msg Link.frame Sim.t;
  nodes : 'node array;
  attach_party : wrapped:bool -> int -> 'node;
}

let attach ?layer ?bytes ?link ?on_link
    ?(wrap : (int -> 'msg Sim.handler -> 'msg Sim.handler) option)
    ~(sim : 'msg Link.frame Sim.t) ~(keyring : Keyring.t)
    ~(make : int -> 'msg Proto_io.t -> 'node)
    ~(handle : 'node -> src:int -> 'msg -> unit) () =
  let n = Sim.n sim and obs = Sim.obs sim in
  let attach_party ~wrapped me =
    let timer ~delay cb = Sim.set_timer sim me ~delay cb in
    let raw dst m = Sim.send sim ~src:me ~dst (Link.Raw m) in
    let ep =
      Option.map
        (fun policy ->
          let ep =
            Link.create ~obs ~policy ~me ~n
              ~raw_send:(fun dst frame -> Sim.send sim ~src:me ~dst frame)
              ~timer
              ~deliver:(fun ~src:_ _ -> ())
              ()
          in
          Option.iter (fun f -> f me ep) on_link;
          ep)
        link
    in
    let send, broadcast, resync =
      match ep with
      | None -> (raw, (fun m -> Sim.broadcast sim ~src:me (Link.Raw m)), None)
      | Some ep ->
        ( (fun dst m -> Link.send ep dst m),
          (fun m -> Link.broadcast ep m),
          Some
            { Proto_io.rejoin = Link.rejoin ep;
              prepare_rejoin = Link.prepare_rejoin ep } )
    in
    let io =
      Proto_io.make ~obs ?layer ?bytes ~timer ~me ~keyring ~send ~broadcast
        ~unsequenced:raw ~link:resync ()
    in
    let node = make me io in
    let honest ~src m = handle node ~src m in
    let h = match wrap with Some w when wrapped -> w me honest | _ -> honest in
    (match ep with
    | None ->
      Sim.set_handler sim me (fun ~src frame ->
          match frame with
          | Link.Raw m | Link.Data { payload = m; _ } -> h ~src m
          | Link.Ack _ -> ())
    | Some ep ->
      Link.set_deliver ep h;
      Sim.set_handler sim me (Link.handle ep));
    node
  in
  { sim; nodes = Array.init n (attach_party ~wrapped:true); attach_party }

let nodes d = d.nodes

let revive d party =
  Sim.recover d.sim party;
  let node = d.attach_party ~wrapped:false party in
  d.nodes.(party) <- node;
  node

let deploy ?layer ?bytes ?link ?on_link ?wrap ~sim ~keyring ~make ~handle ()
    =
  nodes
    (attach ?layer ?bytes ?link ?on_link ?wrap ~sim ~keyring ~make ~handle ())

(* Client endpoints: a slot >= n attached to the same framed simulator.
   Clients are outside the replica group, so they never run link
   machinery — their traffic travels as [Link.Raw] in both directions
   and their loss recovery is protocol-level (request resend against
   execution dedup), not transport-level ARQ.  The handler unwraps
   whatever frame arrives; stray ACKs are ignored. *)

type 'msg client_io = {
  c_send : int -> 'msg -> unit;  (* to one server, Raw-framed *)
  c_send_all : 'msg -> unit;  (* to every server *)
  c_timer : delay:float -> (unit -> unit) -> unit;
  c_clock : unit -> float;
  c_obs : Obs.t;
  c_n : int;  (* server count *)
}

let client_endpoint ~(sim : 'msg Link.frame Sim.t) ~slot
    ~(handle : src:int -> 'msg -> unit) () : 'msg client_io =
  let n = Sim.n sim in
  if slot < n then
    invalid_arg "Stack.client_endpoint: slot collides with a server";
  Sim.set_handler sim slot (fun ~src frame ->
      match frame with
      | Link.Raw m | Link.Data { payload = m; _ } -> handle ~src m
      | Link.Ack _ -> ());
  {
    c_send = (fun dst m -> Sim.send sim ~src:slot ~dst (Link.Raw m));
    c_send_all =
      (fun m ->
        for dst = 0 to n - 1 do
          Sim.send sim ~src:slot ~dst (Link.Raw m)
        done);
    c_timer = (fun ~delay cb -> Sim.set_timer sim slot ~delay cb);
    c_clock = (fun () -> Sim.clock sim);
    c_obs = Sim.obs sim;
    c_n = n;
  }

(* Convenience deployments for each layer of the stack; each declares
   its layer label and wire-size estimate so the simulator's obs handle
   gets per-layer message/byte counters. *)

let deploy_rbc ?wrap ?link ~sim ~keyring ~sender ~deliver () =
  deploy ?wrap ?link ~sim ~keyring ~layer:"rbc" ~bytes:Rbc.msg_size
    ~make:(fun me io -> Rbc.create ~io ~sender ~deliver:(deliver me))
    ~handle:Rbc.handle ()

let deploy_cbc ?wrap ?link ~sim ~keyring ~tag ~sender ?validate ~deliver () =
  deploy ?wrap ?link ~sim ~keyring ~layer:"cbc" ~bytes:(Cbc.msg_size keyring)
    ~make:(fun me io -> Cbc.create ~io ~tag ~sender ?validate ~deliver:(deliver me) ())
    ~handle:Cbc.handle ()

let deploy_abba ?wrap ?link ?on_link ~sim ~keyring ~tag ~on_decide () =
  deploy ?wrap ?link ?on_link ~sim ~keyring ~layer:"abba"
    ~bytes:(Abba.msg_size keyring)
    ~make:(fun me io -> Abba.create ~io ~tag ~on_decide:(on_decide me))
    ~handle:Abba.handle ()

let deploy_vba ?wrap ?link ~sim ~keyring ~tag ?validate ~on_decide () =
  deploy ?wrap ?link ~sim ~keyring ~layer:"vba" ~bytes:(Vba.msg_size keyring)
    ~make:(fun me io -> Vba.create ~io ~tag ?validate ~on_decide:(on_decide me) ())
    ~handle:Vba.handle ()

(* Per-round in-flight diagnostics for the simulator's stall probe:
   which rounds each party has proposed in but not completed, how many
   round proposals it has collected for each, and how many payloads it
   holds unproposed (behind a full window or waiting for a fuller
   batch) — the first thing to look at when a pipelined run exhausts
   its step budget. *)
let abc_stall_summary (nodes : Abc.t array) : string =
  let parts = ref [] in
  Array.iteri
    (fun i node ->
      let rs =
        List.map
          (fun (r, props) -> Printf.sprintf "r%d:%d" r props)
          (Abc.in_flight_rounds node)
      in
      let backlog = Abc.backlog node in
      if rs <> [] || backlog > 0 then
        parts :=
          Printf.sprintf "p%d[%s backlog %d]" i (String.concat "," rs) backlog
          :: !parts)
    nodes;
  match List.rev !parts with
  | [] -> "abc: no rounds in flight"
  | ps ->
    "abc in-flight rounds (round:proposals, unproposed backlog) "
    ^ String.concat " " ps

let probe_abc d abc =
  Sim.set_stall_probe d.sim (fun () ->
      abc_stall_summary (Array.map abc d.nodes))

let deploy_abc ?wrap ?policy ?link ?on_link ~sim ~keyring ~tag ~deliver () =
  let d =
    attach ?wrap ?link ?on_link ~sim ~keyring ~layer:"abc"
      ~bytes:(Abc.msg_size keyring)
      ~make:(fun me io -> Abc.create ?policy ~io ~tag ~deliver:(deliver me) ())
      ~handle:Abc.handle ()
  in
  probe_abc d Fun.id;
  nodes d

let deploy_scabc ?wrap ?policy ?link ~sim ~keyring ~tag ~deliver () =
  deploy ?wrap ?link ~sim ~keyring ~layer:"scabc" ~bytes:(Scabc.msg_size keyring)
    ~make:(fun me io -> Scabc.create ?policy ~io ~tag ~deliver:(deliver me) ())
    ~handle:Scabc.handle ()
