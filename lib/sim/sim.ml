(* Discrete-event simulator of an asynchronous network under adversarial
   scheduling.

   The model of the paper, Section 2: a static set of servers linked by
   asynchronous authenticated point-to-point channels, where the
   adversary controls the order (and, within the run, the timing) of all
   message deliveries and fully controls corrupted parties.  "The network
   is the adversary": the scheduling policy *is* the adversary's
   strategy, so safety/liveness claims become testable by quantifying
   over seeds and policies.

   Beyond the scheduling policy, a [chaos] specification injects link-
   level faults — probabilistic drop / duplication / deferral with
   per-link rates, and timed partition schedules — all drawn from a
   dedicated seeded PRNG so every run stays exactly reproducible.
   Message loss steps outside the paper's reliable-channel model, so
   under a lossy chaos spec only safety (never liveness) claims are
   meaningful; the fault campaign runner (lib/faults) tracks that
   distinction.

   Virtual time exists only to (a) drive the latency model of the benign
   scheduler and (b) let timeout-based baselines (the CL99-style
   deterministic protocol) express their failure detectors; the
   randomized protocols of the architecture never read the clock. *)

type party = int

type 'msg envelope = {
  seq : int;
  src : party;
  dst : party;
  msg : 'msg;
  ready_at : float;  (* earliest "benign" delivery time *)
  dup : bool;  (* a chaos-made duplicate (never re-duplicated) *)
}

type policy =
  | Fifo  (** deliver in send order *)
  | Random_order  (** uniformly random pending message *)
  | Latency_order  (** benign WAN: deliver by ready_at *)
  | Delay_victims of Pset.t
      (** adversarial: messages from/to the victim set are delivered only
          when nothing else is pending *)

(* ---------- chaos: link faults and partition schedules -------------- *)

type link_fault = {
  drop : float;  (* P(delivery attempt silently loses the message) *)
  duplicate : float;  (* P(a second, re-latencied copy is enqueued) *)
  reorder : float;  (* P(the chosen message is pushed back instead) *)
  delay : float;
      (* extra latency as a multiplier on the benign draw: every latency
         on this link becomes latency * (1 + delay).  Deterministic (no
         extra PRNG draw), so delay = 0 reproduces prior schedules
         bit-for-bit. *)
}

let no_fault = { drop = 0.0; duplicate = 0.0; reorder = 0.0; delay = 0.0 }

type partition = {
  from_t : float;
  until_t : float;  (* the cut heals at [until_t] (exclusive window) *)
  cells : Pset.t list;  (* parties in no cell form one implicit cell *)
}

type chaos = {
  default_link : link_fault;
  links : ((party * party) * link_fault) list;
      (* per-link overrides; the first entry wins for a repeated pair *)
  partitions : partition list;
}

let benign_chaos =
  { default_link = no_fault; links = []; partitions = [] }

type chaos_state = {
  spec : chaos;
  crng : Prng.t;
  faults : link_fault array;
      (* the fault of link (src, dst) at [src * slots + dst], overrides
         applied: built once by [set_chaos], so a send or a delivery
         looks its link up by index *)
}

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Sim.set_chaos: %s rate %g not in [0,1]" what r)

let check_fault lf =
  check_rate "drop" lf.drop;
  check_rate "duplicate" lf.duplicate;
  check_rate "reorder" lf.reorder;
  if not (lf.delay >= 0.0 && lf.delay <= 1_000.0) then
    invalid_arg
      (Printf.sprintf "Sim.set_chaos: delay factor %g not in [0,1000]" lf.delay)

(* Cell index of a party; every party outside all listed cells shares
   the implicit cell -1, so two unlisted parties are never separated. *)
let cell_of cells p =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if Pset.mem p c then i else go (i + 1) rest
  in
  go 0 cells

let separated_by pa ~src ~dst tau =
  pa.from_t <= tau && tau < pa.until_t
  && cell_of pa.cells src <> cell_of pa.cells dst

(* Earliest time >= [tau] at which no partition separates src and dst.
   Each hop jumps to a strict-future heal time, so this terminates. *)
let rec release_at spec ~src ~dst tau =
  match
    List.find_opt (fun pa -> separated_by pa ~src ~dst tau) spec.partitions
  with
  | Some pa -> release_at spec ~src ~dst pa.until_t
  | None -> tau

(* ---------- events and state ---------------------------------------- *)

type 'msg handler = src:party -> 'msg -> unit

type drop_reason = Crashed | No_handler | Chaos

let drop_reason_label = function
  | Crashed -> "crashed"
  | No_handler -> "no-handler"
  | Chaos -> "chaos"

(* Optional event trace, for debugging and the CLI's --trace output. *)
type trace_event =
  | Delivered of { at : float; src : party; dst : party; summary : string }
  | Dropped of { at : float; src : party; dst : party; reason : drop_reason }
  | Timer_fired of { at : float; party : party }

type 'msg t = {
  n : int;  (* servers are parties 0 .. n-1; higher ids are clients *)
  slots : int;
  rng : Prng.t;
  mutable policy : policy;
  mutable chaos : chaos_state option;
  mutable clock : float;
  mutable seq : int;
  mutable queue : 'msg envelope option array;
      (* pending envelopes by push stamp: the envelope pushed at stamp
         [s] sits in slot [s] until it is taken, which leaves a [None]
         hole, and every slot at or above [top] is [None], so the queue
         never keeps a delivered or dropped envelope alive.  The length
         is a power of two. *)
  mutable fen : int array;
      (* Fenwick tree over the stamps, 1-based: [fen.(i)] counts the
         occupied stamps in [\[i - lowbit i, i)] *)
  mutable top : int;  (* the next push stamp *)
  mutable live : int;  (* pending envelopes: the occupied stamps *)
  handlers : 'msg handler option array;
  crashed : bool array;
  mutable timers : (float * party * (unit -> unit)) list;
  mutable next_deadline : float;
      (* earliest deadline in [timers]; [infinity] when there is none *)
  metrics : Metrics.t;
  size : 'msg -> int;
  obs : Obs.t;
  mutable tracer : ('msg -> string) option;
  mutable trace : trace_event list;  (* newest first *)
  mutable steps_total : int;  (* completed steps over the sim's lifetime *)
  mutable stall_probe : (unit -> string) option;
      (* protocol-level diagnostics rendered into Out_of_steps *)
}

let initial_capacity = 16

let create ?(policy = Random_order) ?(extra = 8) ?(size = fun _ -> 1)
    ?(obs = Obs.noop) ~n ~seed () : 'msg t =
  { n;
    slots = n + extra;
    rng = Prng.create ~seed;
    policy;
    chaos = None;
    clock = 0.0;
    seq = 0;
    queue = Array.make initial_capacity None;
    fen = Array.make (initial_capacity + 1) 0;
    top = 0;
    live = 0;
    handlers = Array.make (n + extra) None;
    crashed = Array.make (n + extra) false;
    timers = [];
    next_deadline = infinity;
    metrics = Metrics.create ~obs ();
    size;
    obs;
    tracer = None;
    trace = [];
    steps_total = 0;
    stall_probe = None }

let n t = t.n
let clock t = t.clock
let metrics t = t.metrics
let obs t = t.obs
let steps t = t.steps_total
let set_policy t p = t.policy <- p
let set_stall_probe t probe = t.stall_probe <- Some probe

(* An override naming a party outside the slots could never match a
   send, so it is rejected rather than left as dead config.  A repeated
   pair keeps its first entry, as [List.assoc] would. *)
let set_chaos t = function
  | None -> t.chaos <- None
  | Some spec ->
    check_fault spec.default_link;
    List.iter
      (fun ((src, dst), lf) ->
        if src < 0 || src >= t.slots || dst < 0 || dst >= t.slots then
          invalid_arg
            (Printf.sprintf "Sim.set_chaos: link (%d, %d) outside slots [0, %d)"
               src dst t.slots);
        check_fault lf)
      spec.links;
    List.iter
      (fun pa ->
        if not (pa.until_t > pa.from_t) then
          invalid_arg "Sim.set_chaos: empty partition window")
      spec.partitions;
    let faults = Array.make (t.slots * t.slots) spec.default_link in
    List.iter
      (fun ((src, dst), lf) -> faults.((src * t.slots) + dst) <- lf)
      (List.rev spec.links);
    (* The chaos PRNG is split off the scheduler's at installation time,
       so fault draws never perturb the delivery schedule itself. *)
    t.chaos <- Some { spec; crng = Prng.split t.rng; faults }

let check_party t what party =
  if party < 0 || party >= t.slots then invalid_arg what

let set_handler t party (h : 'msg handler) =
  check_party t "Sim.set_handler" party;
  (* Installing a handler on a crashed slot would silently re-arm
     delivery while the crash flag still suppresses timers — a zombie
     that receives but never times out.  The lifecycle is explicit:
     [recover] first, then install the fresh handler. *)
  if t.crashed.(party) then
    invalid_arg "Sim.set_handler: party is crashed (use Sim.recover first)";
  t.handlers.(party) <- Some h

let wrap_handler t party f =
  check_party t "Sim.wrap_handler" party;
  let prev =
    match t.handlers.(party) with
    | Some h -> h
    | None -> fun ~src:_ _ -> ()
  in
  t.handlers.(party) <- Some (f prev)

let enable_trace t ~summarize = t.tracer <- Some summarize
let trace t = List.rev t.trace

let min_deadline timers =
  List.fold_left (fun acc (d, _, _) -> Float.min acc d) infinity timers

let crash t party =
  check_party t "Sim.crash" party;
  t.crashed.(party) <- true;
  (* A dead node's timers are inert: purge its pending callbacks so the
     scheduler never has to consider them again (the fire-time guard in
     [fire_due_timers] stays as a second line of defence). *)
  t.timers <- List.filter (fun (_, p, _) -> p <> party) t.timers;
  t.next_deadline <- min_deadline t.timers

let is_crashed t party =
  check_party t "Sim.is_crashed" party;
  t.crashed.(party)

(* Un-crash a party.  The slot comes back amnesiac: the crash purged its
   timers and [recover] drops its handler, so the old incarnation can
   never fire again; the caller must install a fresh handler (and any
   catch-up logic) before the party participates.  Envelopes addressed
   to the party while it was down were dropped at delivery time and stay
   dropped — recovery does not resurrect lost messages. *)
let recover t party =
  check_party t "Sim.recover" party;
  if not t.crashed.(party) then invalid_arg "Sim.recover: party not crashed";
  t.crashed.(party) <- false;
  t.handlers.(party) <- None

(* Random per-message WAN latency in [10, 100) virtual milliseconds. *)
let latency t = 10.0 +. (90.0 *. Prng.float t.rng)

(* The chaos delay factor of a link (0 without chaos): a deterministic
   multiplier applied after the latency draw, so it stretches the benign
   schedule without consuming randomness. *)
let delay_factor t ~src ~dst =
  match t.chaos with
  | None -> 1.0
  | Some { faults; _ } -> 1.0 +. faults.((src * t.slots) + dst).delay

(* ---------- the pending queue --------------------------------------- *)

(* The policies are specified over the queue newest first, the order of
   the list scheduler this queue replaced.  Each push takes the next
   stamp, so the newest envelope holds the highest occupied stamp, and
   taking an envelope leaves a hole instead of shifting the younger ones
   down.  The Fenwick tree finds the [r]-th oldest envelope in
   O(log capacity). *)

let env_at t slot =
  match t.queue.(slot) with Some e -> e | None -> assert false

let lowbit i = i land (-i)

let fen_add t s d =
  let i = ref (s + 1) in
  while !i < Array.length t.fen do
    t.fen.(!i) <- t.fen.(!i) + d;
    i := !i + lowbit !i
  done

(* Stamp of the [r]-th (from 1) oldest pending envelope, for
   [1 <= r <= live]: the binary descent of the tree. *)
let nth_oldest t r =
  let pos = ref 0 and r = ref r and step = ref (Array.length t.queue lsr 1) in
  while !step > 0 do
    let c = t.fen.(!pos + !step) in
    if c < !r then begin
      pos := !pos + !step;
      r := !r - c
    end;
    step := !step lsr 1
  done;
  !pos

(* Out of stamps: move the pending envelopes, in stamp order, to stamps
   [0, live) and rebuild the tree.  The move is in place unless more
   than half the capacity is live, when the capacity doubles; either way
   at least half of it is left for fresh stamps, so the O(capacity) pass
   costs O(1) amortised per push. *)
let compact t =
  let old = t.queue in
  let cap = Array.length old in
  if 2 * t.live > cap then begin
    t.queue <- Array.make (2 * cap) None;
    t.fen <- Array.make ((2 * cap) + 1) 0
  end;
  let j = ref 0 in
  for s = 0 to cap - 1 do
    match old.(s) with
    | Some _ as e ->
      t.queue.(!j) <- e;
      incr j
    | None -> ()
  done;
  if t.queue == old then Array.fill old t.live (cap - t.live) None;
  t.top <- t.live;
  (* stamps [0, live) are occupied; node [i] covers [i - lowbit i, i) *)
  for i = 1 to Array.length t.fen - 1 do
    t.fen.(i) <- max 0 (min i t.live - (i - lowbit i))
  done

let push t env =
  if t.top = Array.length t.queue then compact t;
  t.queue.(t.top) <- Some env;
  fen_add t t.top 1;
  t.top <- t.top + 1;
  t.live <- t.live + 1

(* An emptied queue starts its stamps over: every slot is a hole and
   every tree count is zero. *)
let take t s =
  let env = env_at t s in
  t.queue.(s) <- None;
  fen_add t s (-1);
  t.live <- t.live - 1;
  if t.live = 0 then t.top <- 0;
  env

let send t ~src ~dst msg =
  check_party t "Sim.send: src" src;
  check_party t "Sim.send" dst;
  Metrics.incr_sent t.metrics ~bytes:(t.size msg);
  let env =
    { seq = t.seq; src; dst; msg;
      ready_at = t.clock +. (latency t *. delay_factor t ~src ~dst);
      dup = false }
  in
  t.seq <- t.seq + 1;
  push t env

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst msg
  done

let set_timer t party ~delay callback =
  check_party t "Sim.set_timer" party;
  (* A crashed party schedules nothing: without this guard, a callback
     registered after the crash (e.g. by link-layer state the protocol
     left behind) would keep the network non-quiescent forever. *)
  if not t.crashed.(party) then begin
    let d = t.clock +. delay in
    t.timers <- (d, party, callback) :: t.timers;
    t.next_deadline <- Float.min t.next_deadline d
  end

(* [next_deadline] is exact, so nothing is due while it lies ahead of
   the clock and the timer list is only partitioned when a timer fires.
   Callbacks may set timers or crash parties; both keep the cache exact
   themselves. *)
let fire_due_timers t =
  if t.next_deadline <= t.clock then begin
    let due, rest = List.partition (fun (d, _, _) -> d <= t.clock) t.timers in
    t.timers <- rest;
    t.next_deadline <- min_deadline rest;
    List.iter
      (fun (d, party, cb) ->
        if not t.crashed.(party) then begin
          if t.tracer <> None then
            t.trace <- Timer_fired { at = d; party } :: t.trace;
          Obs.point t.obs ~party ~layer:"sim" "timer";
          cb ()
        end)
      (List.sort (fun (a, _, _) (b, _, _) -> compare a b) due)
  end

let pending_count t = t.live
let timer_count t = List.length t.timers

(* Partition gating: an envelope is held back while an active window
   separates its endpoints at its would-be delivery time. *)
let env_release t (e : 'msg envelope) : float =
  let tau = Float.max t.clock e.ready_at in
  match t.chaos with
  | None -> tau
  | Some { spec; _ } -> release_at spec ~src:e.src ~dst:e.dst tau

let env_blocked t e = env_release t e > Float.max t.clock e.ready_at

(* Scans over the queue.  Each loops over the stamps in place, skips
   holes and builds no list; [kth_newest], [earliest_ready] and the
   everything-blocked fallback of [do_step] walk newest first, which
   fixes their tie breaks.  Holes change no order, so the picks are
   those of the list scheduler. *)

(* Whether stamp [s] holds an envelope satisfying [p]. *)
let holds t p s = match t.queue.(s) with Some e -> p e | None -> false

let count t p =
  let c = ref 0 in
  for s = 0 to t.top - 1 do
    if holds t p s then incr c
  done;
  !c

(* Stamp of the [k]-th (from 0) envelope satisfying [p], newest first. *)
let kth_newest t p k =
  let rec go s k =
    if holds t p s then if k = 0 then s else go (s - 1) (k - 1)
    else go (s - 1) k
  in
  go (t.top - 1) k

(* Stamp of the oldest envelope satisfying [p]. *)
let oldest t p =
  let rec go s = if holds t p s then s else go (s + 1) in
  go 0

(* Stamp of the envelope satisfying [p] with the smallest [ready_at];
   ties go to the newest, as in a newest-first scan, and the newest
   envelope is the answer when none is earlier than [infinity]. *)
let earliest_ready t p =
  let best = ref (nth_oldest t t.live) and best_t = ref infinity in
  for s = t.top - 1 downto 0 do
    match t.queue.(s) with
    | Some e when p e && e.ready_at < !best_t ->
      best := s;
      best_t := e.ready_at
    | Some _ | None -> ()
  done;
  !best

let every _ = true
let touched victims e = Pset.mem e.src victims || Pset.mem e.dst victims

(* Under [Delay_victims], a uniformly random eligible envelope that does
   not touch a victim; the oldest eligible one when all of them do. *)
let pick_free t victims eligible =
  let free e = eligible e && not (touched victims e) in
  match count t free with
  | 0 -> oldest t eligible
  | m -> kth_newest t free (Prng.int t.rng m)

let partitioned t =
  match t.chaos with
  | Some { spec = { partitions = _ :: _; _ }; _ } -> true
  | Some _ | None -> false

(* Pick the slot of the next envelope to deliver.  The scheduling policy
   only ever chooses among envelopes not held back by a partition; when
   every pending message is blocked, [None] is returned and [do_step]
   advances the clock to the next unblock or timer deadline instead of
   delivering (so open-ended windows are fine: timers keep firing behind
   the cut, and a network that can never heal and has no timers simply
   quiesces).  Without partitions every envelope is eligible, so FIFO
   and uniform picks need no scan: the draw [k] of [Random_order] is the
   [k]-th newest, that is the [(live - k)]-th oldest envelope. *)
let choose t : int option =
  if t.live = 0 then None
  else if not (partitioned t) then
    Some
      (match t.policy with
      | Fifo -> nth_oldest t 1
      | Random_order -> nth_oldest t (t.live - Prng.int t.rng t.live)
      | Latency_order -> earliest_ready t every
      | Delay_victims victims -> pick_free t victims every)
  else
    let eligible e = not (env_blocked t e) in
    match count t eligible with
    | 0 -> None
    | m ->
      Some
        (match t.policy with
        | Fifo -> oldest t eligible
        | Random_order -> kth_newest t eligible (Prng.int t.rng m)
        | Latency_order -> earliest_ready t eligible
        | Delay_victims victims -> pick_free t victims eligible)

(* Under [Delay_victims], the adversary also out-waits timeouts: when
   only victim traffic remains and a timer is pending, virtual time jumps
   past the earliest deadline before any victim message is released.
   This is exactly the paper's Section 2.2 attack — "the adversary may
   simply delay the communication with a server longer than the timeout
   and the server appears faulty to the others". *)
let adversary_outwaits_timer t : bool =
  match t.policy with
  | Fifo | Random_order | Latency_order -> false
  | Delay_victims victims ->
    let rec all_touched s =
      s < 0
      || ((match t.queue.(s) with
          | Some e -> touched victims e
          | None -> true)
         && all_touched (s - 1))
    in
    t.timers <> [] && t.live > 0 && all_touched (t.top - 1)

(* The single choke point for every kind of non-delivery, so all drop
   paths count, trace and observe identically (tagged with the reason). *)
let drop_env t reason (env : 'msg envelope) =
  Metrics.incr_drops t.metrics;
  if reason = Chaos then Metrics.incr_chaos_drops t.metrics;
  if t.tracer <> None then
    t.trace <-
      Dropped { at = t.clock; src = env.src; dst = env.dst; reason } :: t.trace;
  Obs.point t.obs ~party:env.dst ~src:env.src ~layer:"sim"
    ~tag:(drop_reason_label reason) "drop"

let deliver_env t (env : 'msg envelope) =
  if t.crashed.(env.dst) then drop_env t Crashed env
  else
    match t.handlers.(env.dst) with
    | None -> drop_env t No_handler env
    | Some h ->
      Metrics.incr_deliveries t.metrics;
      (match t.tracer with
      | Some summarize ->
        t.trace <-
          Delivered
            { at = t.clock; src = env.src; dst = env.dst;
              summary = summarize env.msg }
          :: t.trace
      | None -> ());
      h ~src:env.src env.msg

(* Remove the envelope in [slot] from the queue and put it through the
   chaos pipeline (defer / drop / duplicate) and delivery, advancing the
   clock to its release time first. *)
let deliver_pending t slot : unit =
  let env = take t slot in
  t.clock <- max t.clock (env_release t env);
  fire_due_timers t;
  match t.chaos with
  | None -> deliver_env t env
  | Some { faults; crng; _ } ->
    let lf = faults.((env.src * t.slots) + env.dst) in
    (* Defer: push the chosen message back with a fresh latency — an
       extra reordering knob on top of the scheduling policy.  Only
       when other traffic is pending, so a lone message cannot be
       deferred forever. *)
    if lf.reorder > 0.0 && t.live > 0 && Prng.float crng < lf.reorder then begin
      Metrics.incr_chaos_reorders t.metrics;
      push t
        { env with
          ready_at = t.clock +. (latency t *. (1.0 +. lf.delay)) }
    end
    else if lf.drop > 0.0 && Prng.float crng < lf.drop then
      drop_env t Chaos env
    else begin
      if
        lf.duplicate > 0.0 && (not env.dup)
        && Prng.float crng < lf.duplicate
      then begin
        Metrics.incr_chaos_dups t.metrics;
        Metrics.incr_sent t.metrics ~bytes:(t.size env.msg);
        push t
          { env with
            seq = t.seq;
            ready_at = t.clock +. (latency t *. (1.0 +. lf.delay));
            dup = true };
        t.seq <- t.seq + 1
      end;
      deliver_env t env
    end

(* A step that delivers nothing: virtual time jumps to the earliest
   timer deadline and the due timers fire. *)
let advance_to_next_timer t =
  t.clock <- Float.max t.clock t.next_deadline;
  fire_due_timers t

(* Deliver one message.  Returns false when the network is quiescent. *)
let do_step t : bool =
  if adversary_outwaits_timer t then begin
    advance_to_next_timer t;
    true
  end
  else
  match choose t with
  | Some slot ->
    deliver_pending t slot;
    true
  | None when t.live = 0 ->
    (* No traffic: advance time to the next timer, if any. *)
    if t.timers = [] then false
    else begin
      advance_to_next_timer t;
      true
    end
  | None ->
    (* Every pending message is behind a partition.  The step becomes a
       clock advance to the next unblock or timer deadline: when a timer
       fires strictly before the earliest cut heals, virtual time jumps
       only to the deadline (protocols keep retransmitting and probing
       behind the cut instead of sleeping until the heal); otherwise the
       earliest-healing envelope goes through, jumping past the heal.
       With every window open-ended and no timers left the network is
       dead — quiesce rather than crash or spin.  Ties between envelopes
       go to the newest, as in a newest-first scan. *)
    let best = ref (-1) and best_t = ref infinity in
    for s = t.top - 1 downto 0 do
      match t.queue.(s) with
      | Some e ->
        let r = env_release t e in
        if r < !best_t then begin
          best := s;
          best_t := r
        end
      | None -> ()
    done;
    if t.next_deadline < !best_t then begin
      advance_to_next_timer t;
      true
    end
    else if !best >= 0 then begin
      deliver_pending t !best;
      true
    end
    else false

let step t : bool =
  let progressed = do_step t in
  if progressed then t.steps_total <- t.steps_total + 1;
  progressed

exception
  Out_of_steps of {
    at_clock : float;
    pending : int;
    timers : int;
    detail : string;
  }

(* Run until [until ()] holds or the network is quiescent; raises
   [Out_of_steps] — carrying the clock, pending-message count, live
   timer count and the stall probe's protocol-level diagnostics (e.g.
   per-round in-flight counts of a pipelined atomic broadcast) — if the
   bound is exceeded first. *)
let run ?(max_steps = 2_000_000) ?(until = fun () -> false) t : unit =
  let steps = ref 0 in
  let rec go () =
    if until () then ()
    else if !steps >= max_steps then
      raise
        (Out_of_steps
           { at_clock = t.clock;
             pending = t.live;
             timers = List.length t.timers;
             detail =
               (match t.stall_probe with
               | None -> ""
               | Some probe -> ( try probe () with _ -> "")) })
    else begin
      incr steps;
      if step t then go () else ()
    end
  in
  go ();
  (* One observation per completed run: the histogram sum is the total
     virtual time across every sim an experiment drives. *)
  if Obs.active t.obs then
    Obs.observe t.obs ~labels:[ ("layer", "sim") ] "virtual_time" t.clock
