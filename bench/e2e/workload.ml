(* The four service workloads and the driven run that executes one of
   them on the simulator through the public deployment API only
   (Keyring.deal, Service.deploy/revive, Service.Client, Sim).

   Every random input derives from the run seed: the dealer seed, the
   simulator seed, the client seeds, the read/write mix and the crash
   victim.  A run issues a fixed number of requests and then drains, so
   the same seed and size reproduce every count and virtual time
   exactly, and the size of the service's history (which its memory
   grows with) does not depend on how fast the host or the code ran. *)

type kind = Directory | Notary | Ca

type loop =
  | Closed of { window : int }
      (** each client keeps [window] requests in flight and submits the
          next one from the completion callback of the previous one *)
  | Open of { interval : float }
      (** one request due every [interval] virtual ms, round-robin over
          the clients, whatever the service's progress *)

type t = {
  name : string;
  kind : kind;
  n : int;
  t : int;
  read_frac : float;
  loop : loop;
  lossy : bool;
      (** 30% drop on every link but replica-to-client replies, engine
          traffic over ARQ *)
  crash_cycle : int;
      (** [> 0]: requests per crash/revive cycle; the victim crashes at
          the due time of the cycle's request [3c/10] and is revived at
          [7c/10]; runs hold whole cycles. *)
  rate : float;
      (** certificates per second at the reference host speed (see
          {!Host}); sizes a run of a given length *)
  smoke_requests : int;
}

let clients = 3
let group_bits = 128
let rsa_bits = 192
let keyspace = 16
let ckpt_interval = 2
let drop = 0.3
let abc_policy = { Abc.default_policy with Abc.max_batch_msgs = 8; window = 2 }

(* Clients wait for their certificate instead of abandoning it after the
   default 25 resends (37.5 virtual s): with 30% loss and a replica down,
   ordering a write occasionally takes longer than that. *)
let max_resends = 100

(* Twice the mean inter-completion time (virtual ms) of a closed 3x4
   loop with the lossy-crash settings but no crash, at seed 1 over 1,040
   requests (1,148.6 vms): requests come at half the rate the service
   sustains under loss, so its backlog stays bounded. *)
let lossy_interval = 2297.

let all =
  [
    { name = "read-mostly"; kind = Directory; n = 4; t = 1; read_frac = 0.75;
      loop = Closed { window = 4 }; lossy = false; crash_cycle = 0;
      rate = 170.; smoke_requests = 60 };
    { name = "notary-writes"; kind = Notary; n = 4; t = 1; read_frac = 0.0;
      loop = Closed { window = 4 }; lossy = false; crash_cycle = 0;
      rate = 50.; smoke_requests = 30 };
    { name = "ca-writes-n7"; kind = Ca; n = 7; t = 2; read_frac = 0.0;
      loop = Closed { window = 4 }; lossy = false; crash_cycle = 0;
      rate = 18.; smoke_requests = 16 };
    { name = "lossy-crash"; kind = Ca; n = 4; t = 1; read_frac = 0.5;
      loop = Open { interval = lossy_interval }; lossy = true;
      crash_cycle = 40; rate = 52.; smoke_requests = 40 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Requests in a run that takes about [seconds] at the reference host
   speed, rounded up to whole crash cycles. *)
let requests w ~seconds =
  let k = max 1 (int_of_float (Float.round (seconds *. w.rate))) in
  if w.crash_cycle > 0 then (k + w.crash_cycle - 1) / w.crash_cycle * w.crash_cycle
  else k

let mode w = match w.kind with Notary -> Service.Confidential | _ -> Service.Plain

(* The notary's confidential engine has no recovery wrapper, so it runs
   without checkpoint GC. *)
let interval w = match w.kind with Notary -> 0 | Directory | Ca -> ckpt_interval

let make_app w =
  match w.kind with
  | Directory -> Directory_service.make_app
  | Notary -> Notary.make_app
  | Ca -> Ca.make_app

let read_only w =
  match w.kind with
  | Directory -> Directory_service.read_only
  | Notary -> Notary.read_only
  | Ca -> Ca.read_only

(* Writes land in a keyspace of 16 entities so reads hit state an earlier
   write created. *)
let write_body w ~seed ~idx =
  let k = idx mod keyspace in
  match w.kind with
  | Ca ->
    Ca.issue_request ~id:(Printf.sprintf "id-%d" k)
      ~pubkey:(Printf.sprintf "pk-%d-%d" seed idx) ~credentials:"svc!ok"
  | Directory ->
    Directory_service.bind_request ~key:(Printf.sprintf "k-%d" k)
      ~value:(Printf.sprintf "v-%d-%d" seed idx)
  | Notary -> Notary.register_request ~document:(Printf.sprintf "doc-%d-%d" seed k)

let read_body w ~seed ~idx =
  let k = idx mod keyspace in
  match w.kind with
  | Ca -> Ca.lookup_request ~id:(Printf.sprintf "id-%d" k)
  | Directory ->
    if k land 7 = 0 then Directory_service.list_request ()
    else Directory_service.lookup_request ~key:(Printf.sprintf "k-%d" k)
  | Notary ->
    Notary.query_request ~digest:(Sha256.digest (Printf.sprintf "doc-%d-%d" seed k))

let dealer_seed seed = (seed * 7919) + 7770

let deal w ~seed =
  Keyring.deal ~group_bits ~rsa_bits ~seed:(dealer_seed seed)
    (Adversary_structure.threshold ~n:w.n ~t:w.t)

(* ---------- deployment ---------------------------------------------- *)

type deployment = {
  w : t;
  keyring : Keyring.t;
  sim : Service.msg Link.frame Sim.t;
  dep : Service.deployment;
  cl : Service.Client.c array;
}

(* [wrap sim slot] is applied to every slot right after its handler is
   installed: replicas after deploy and after each revive, clients after
   creation.  The traced pass uses it to time deliveries. *)
let deploy ?(obs = Obs.noop) ?(wrap = fun _ _ -> ()) w ~keyring ~seed =
  (* One slot per client, and one for the open-loop generator's timers. *)
  let sim =
    Sim.create ~n:w.n ~extra:(clients + 1) ~seed
      ~size:(Link.frame_size (Service.msg_size keyring)) ~obs ()
  in
  (* Replies to clients are spared the loss: a plain-mode resend of a
     request that is already ordered is dropped by Abc's content dedup and
     never re-answered, so a write whose replies were all lost would
     never complete. *)
  if w.lossy then
    Sim.set_chaos sim
      (Some
         { Sim.benign_chaos with
           Sim.default_link = { Sim.no_fault with Sim.drop };
           links =
             List.concat_map
               (fun r ->
                 List.init clients (fun i -> ((r, w.n + i), Sim.no_fault)))
               (List.init w.n Fun.id) });
  let dep =
    Service.deploy ~policy:abc_policy
      ?link:(if w.lossy then Some Link.default_policy else None)
      ?ckpt_interval:(if interval w > 0 then Some (interval w) else None)
      ~read_only:(read_only w) ~sim ~keyring ~mode:(mode w)
      ~make_app:(make_app w) ()
  in
  for p = 0 to w.n - 1 do wrap sim p done;
  let cl =
    Array.init clients (fun i ->
        let c =
          Service.Client.create ~max_resends ~sim ~keyring ~slot:(w.n + i)
            ~seed:((seed * 131) + i) ()
        in
        wrap sim (w.n + i);
        c)
  in
  { w; keyring; sim; dep; cl }

(* ---------- the driven run ------------------------------------------ *)

(* Completed requests, in completion order. *)
type completion = {
  c_idx : int;
  c_read : bool;
  c_due : float;  (** virtual ms the request was due *)
  c_done : float;  (** virtual ms its certificate verified *)
  c_submit_wall : float;
  c_done_wall : float;
}

type result = {
  issued : int;
  reads : int;
  done_ : completion array;
  bad_certs : int;  (** accepted certificates that failed re-verification *)
  first_cert : Service.reply_cert option;
  abandoned : int;
  loop_start : float;
  loop_end : float;
  steps : int;
  messages : int;
  bytes : int;
  drops : int;
  late : float;  (** summed virtual ms the open-loop generator ran late *)
  outages : float list;  (** per crash: crash to first later write cert *)
  rejoins : float list;  (** per revive: revive to first transfer install *)
  victim : int;
  hung : bool;  (** the safety wall-time limit cut the run short *)
}

let now = Unix.gettimeofday

(* Every accepted certificate is re-verified as it arrives, rather than
   kept for later, so the harness holds no per-request certificate
   memory. *)
let run ?(wrap = fun _ _ -> ()) ?(on_step = fun () -> ()) ~requests ~hard_limit
    ~seed d =
  let w = d.w and sim = d.sim in
  let mode = mode w in
  let rng = Prng.create ~seed:(seed lxor 0x51c5) in
  let issued = ref 0 and reads = ref 0 in
  let done_ = ref [] and ndone = ref 0 and bad = ref 0 and first = ref None in
  let late = ref 0. in
  let victim = if w.crash_cycle > 0 then abs seed mod w.n else -1 in
  let crash_at = ref infinity and outages = ref [] and rejoins = ref [] in
  let submit ci ~due ~next =
    let idx = !issued in
    incr issued;
    let read = Prng.float rng < w.read_frac in
    if read then incr reads;
    let submit_wall = now () in
    let fin rc =
      let t = Sim.clock sim in
      if not (Service.verify_reply_cert d.keyring rc) then incr bad;
      if !first = None then first := Some rc;
      incr ndone;
      done_ :=
        { c_idx = idx; c_read = read; c_due = due; c_done = t;
          c_submit_wall = submit_wall; c_done_wall = now () }
        :: !done_;
      if (not read) && due >= !crash_at then begin
        outages := (t -. !crash_at) :: !outages;
        crash_at := infinity
      end;
      next ci
    in
    let c = d.cl.(ci) in
    if read then Service.Client.query c ~mode (read_body w ~seed ~idx) fin
    else Service.Client.request c ~mode (write_body w ~seed ~idx) fin
  in
  let revive () =
    let node = Service.revive d.dep victim in
    wrap sim victim;
    let at = Sim.clock sim and installed = ref false in
    Option.iter
      (fun r ->
        Recovery.set_on_transfer r (fun ~bytes:_ ~round:_ ->
            if not !installed then begin
              installed := true;
              rejoins := (Sim.clock sim -. at) :: !rejoins
            end))
      (Service.recovery_of node)
  in
  let loop_start = now () in
  (match w.loop with
  | Closed { window } ->
    let rec next ci = if !issued < requests then submit ci ~due:(Sim.clock sim) ~next in
    for _ = 1 to window do
      Array.iteri (fun ci _ -> next ci) d.cl
    done
  | Open { interval } ->
    let generator = w.n + clients in
    let rec tick due =
      if !issued < requests then begin
        let pos = !issued mod max 1 w.crash_cycle in
        if w.crash_cycle > 0 && pos = 3 * w.crash_cycle / 10 then begin
          Sim.crash sim victim;
          crash_at := Sim.clock sim
        end;
        if w.crash_cycle > 0 && pos = 7 * w.crash_cycle / 10 then revive ();
        late := !late +. (Sim.clock sim -. due);
        submit (!issued mod clients) ~due ~next:ignore;
        let due = due +. interval in
        Sim.set_timer sim generator ~delay:(Float.max 0. (due -. Sim.clock sim))
          (fun () -> tick due)
      end
    in
    Sim.set_timer sim generator ~delay:0. (fun () -> tick 0.));
  let abandoned () =
    Array.fold_left (fun a c -> a + Service.Client.timeouts c) 0 d.cl
  in
  let hung = ref false and polls = ref 0 in
  let until () =
    on_step ();
    incr polls;
    if !polls land 1023 = 0 && now () > hard_limit then hung := true;
    !hung || (!issued >= requests && !ndone + abandoned () >= !issued)
  in
  Sim.run ~max_steps:max_int ~until sim;
  let loop_end = now () in
  let m = Sim.metrics sim in
  {
    issued = !issued;
    reads = !reads;
    done_ = Array.of_list (List.rev !done_);
    bad_certs = !bad;
    first_cert = !first;
    abandoned = abandoned ();
    loop_start;
    loop_end;
    steps = Sim.steps sim;
    messages = m.Metrics.messages_sent;
    bytes = m.Metrics.bytes_sent;
    drops = m.Metrics.drops;
    late = !late;
    outages = List.rev !outages;
    rejoins = List.rev !rejoins;
    victim;
    hung = !hung;
  }
