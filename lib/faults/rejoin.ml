(* Crash-and-rejoin and partition-heal campaigns over the recovery
   subsystem: seeded scenario runs with recovery oracles and a
   machine-readable RECOV report.

   Each run streams payloads through a recovery-wrapped atomic-broadcast
   deployment (checkpointing on, reliable link on, lossy chaos), knocks
   one replica out mid-stream — a hard crash followed by [Recovery.revive],
   or a network partition that heals — and checks with the digest-history
   oracles that the victim catches back up to the *whole* order, certified
   prefix included.  The optional forged variant corrupts one survivor
   with {!Byzantine.For_recovery.forged_server}, so every run also
   witnesses the fetcher rejecting a forged snapshot.

   A separate bounded-memory probe runs one sustained-load stream twice —
   checkpoint GC on and off — and reports the delivered-log high-water
   marks, the boundedness evidence the report's "GC'd log peak" row is
   limited by. *)

type scenario = Crash_rejoin | Partition_heal

let scenario_label = function
  | Crash_rejoin -> "crash-rejoin"
  | Partition_heal -> "partition-heal"

(* The checkpoint period in rounds, the batching policy, the chaos drop
   rate unless the core sets one (the link layer restores it), the
   per-run step bound unless the core sets one, and the bounded-memory
   probe's stream. *)
let interval = 4
let abc_policy = { Abc.default_policy with Abc.max_batch_msgs = 4; window = 2 }
let drop = 0.3
let max_steps = 600_000
let memory_payloads = 192

type run_result = {
  jr_scenario : scenario;
  jr_seed : int;
  jr_forged : bool;
  jr_victim : int;
  jr_recovered : bool;  (* full history present, no safety violation *)
  jr_transferred : bool;  (* victim installed via certified transfer *)
  jr_transfer_bytes : int;
  jr_rejected : int;  (* forged/malformed replies the victim dropped *)
  jr_log_peak : int;  (* max delivered-log high-water across honest *)
  jr_retired : int;  (* max per-round structures retired across honest *)
  jr_ckpt_round : int;  (* highest certified boundary across honest *)
  jr_violations : Oracle.violation list;
  jr_steps : int;
}

type cell = scenario * bool

let cell_label (scenario, forged) =
  scenario_label scenario ^ if forged then "/forged" else "/plain"

(* The monitor's poll period, virtual time. *)
let poll = 200.0

(* The outage lands at 35% of the stream and ends at 75%, over lossy
   links the link layer restores.  Partition-heal cuts the victim off
   behind an open-ended [Sim.partition] and heals by restoring the base
   spec, so its window is progress-driven too. *)
let timeline ~drop scenario =
  let open Sweep in
  let outage, comeback =
    match scenario with
    | Crash_rejoin -> (Crash, Revive)
    | Partition_heal -> (Isolate, Heal)
  in
  [ { at = Start; act = Chaos (lossy drop) };
    { at = Progress 0.35; act = outage };
    { at = Progress 0.75; act = comeback } ]

(* ---------- one scenario run ------------------------------------------ *)

let run_one ~(core : Sweep.core) ~max_steps (env : Sweep.env)
    (scenario, forged) ~seed timeline =
  let n = core.n and payloads = core.size in
  let keyring = env.keyring in
  let victim = abs seed mod n in
  let forger = (victim + 1) mod n in
  let honest =
    if forged then Pset.remove forger (Pset.full n) else Pset.full n
  in
  let sim = Sim.create ~n ~seed ~obs:env.obs () in
  let faults = Sweep.start env ~victim sim timeline in
  let tag = Printf.sprintf "recov-%s-%d" (scenario_label scenario) seed in
  let wrap =
    if forged then
      Some
        (Byzantine.wrap_of ~sim ~keyring ~seed:(seed lxor 0x5eed)
           ~set:(Pset.singleton forger)
           (Byzantine.For_recovery.forged_server ()))
    else None
  in
  let dep =
    Recovery.deploy ?wrap ~policy:abc_policy ~link:Link.default_policy
      ~interval ~sim ~keyring ~tag
      ~deliver:(fun _ _ -> ())
      ()
  in
  let note_transfer party ~bytes ~round =
    Flight.note_anomaly env.flight Flight.State_transfer ~at:(Sim.clock sim)
      ~detail:
        (Printf.sprintf "party %d adopted %d bytes up to round %d" party bytes
           round)
  in
  Array.iteri
    (fun p node -> Recovery.set_on_transfer node (note_transfer p))
    (Recovery.nodes dep);
  Sweep.stream sim ~victim
    (List.init payloads (fun k -> Printf.sprintf "rtx-%d-%d" seed k))
    (fun s payload -> Recovery.submit (Recovery.nodes dep).(s) payload);
  let nodes () = Recovery.nodes dep in
  let count p = Abc.delivered_count (Recovery.abc (nodes ()).(p)) in
  (* The timeline runs on stream progress at the surviving honest
     parties.  The monitor is honest and never the victim (for n = 4 it
     also avoids the forger at victim + 1), so its poll timer survives
     the whole run. *)
  Sweep.drive faults ~monitor:((victim + 2) mod n) ~period:poll
    ~total:payloads
    ~progress:(fun () ->
      Pset.fold
        (fun p acc -> if p = victim then acc else max acc (count p))
        honest 0)
    (function
      | Sweep.Revive ->
        let node = Recovery.revive dep victim in
        Recovery.set_on_transfer node (note_transfer victim)
      | Sweep.Heal ->
        (* Resync on heal, as an operator would after a long cut: the
           victim races native ARQ catch-up against certified state
           transfer, and a forged server gets fetched (and rejected)
           either way. *)
        Recovery.start_catch_up (nodes ()).(victim)
      | _ -> ());
  let done_ () = Pset.for_all (fun p -> count p >= payloads) honest in
  (* A replica can quiesce slightly behind with no new checkpoint share
     to trip its lag detector; nudge it the way an operator would. *)
  let stall =
    Sweep.run_sim sim ~max_steps ~until:done_
      ~retry:(fun () ->
        Pset.iter
          (fun p ->
            if count p < payloads && not (Sim.is_crashed sim p) then
              Recovery.start_catch_up (nodes ()).(p))
          honest)
  in
  let victim_node = (nodes ()).(victim) in
  let histories =
    Array.map
      (fun node -> Abc.delivered_digests (Recovery.abc node))
      (nodes ())
  in
  let violations =
    Oracle.check_recovery ~honest ~expected:payloads histories
    @ stall
  in
  let safety = Oracle.count_safety violations in
  let fold_honest f =
    Pset.fold
      (fun p acc -> max acc (f (Recovery.abc (nodes ()).(p))))
      honest 0
  in
  {
    jr_scenario = scenario;
    jr_seed = seed;
    jr_forged = forged;
    jr_victim = victim;
    jr_recovered = count victim >= payloads && safety = 0;
    jr_transferred = Recovery.transfers victim_node > 0;
    jr_transfer_bytes = Recovery.transfer_bytes victim_node;
    jr_rejected = Recovery.rejected_replies victim_node;
    jr_log_peak = fold_honest Abc.log_peak;
    jr_retired = fold_honest Abc.retired_rounds;
    jr_ckpt_round =
      Pset.fold
        (fun p acc -> max acc (Recovery.certified_round (nodes ()).(p)))
        honest 0;
    jr_violations = violations;
    jr_steps = Sim.steps sim;
  }

(* ---------- bounded-memory probe -------------------------------------- *)

type memory_probe = {
  m_gc_on_peak : int;  (* delivered-log high-water, checkpoint GC on *)
  m_gc_on_retired : int;  (* per-round structures retired *)
  m_gc_on_ckpt_round : int;  (* last certified boundary *)
  m_gc_off_peak : int;  (* the unbounded baseline: equals the stream *)
}

(* One sustained-load stream, no faults, link off: every party submits
   round-robin up front and the run drains under back-pressure.  Returns
   (log peak, rounds retired, certified round) maxed over parties. *)
let memory_run (env : Sweep.env) ~payloads ~interval ~seed =
  let keyring = env.keyring in
  let n = Keyring.n keyring in
  let sim = Sim.create ~n ~seed ~obs:env.obs () in
  let dep =
    Recovery.deploy ~policy:abc_policy ~interval ~sim ~keyring
      ~tag:(Printf.sprintf "recov-mem-%d-%d" interval seed)
      ~deliver:(fun _ _ -> ())
      ()
  in
  let nodes = Recovery.nodes dep in
  List.iteri
    (fun k payload -> Recovery.submit nodes.(k mod n) payload)
    (List.init payloads (fun k -> Printf.sprintf "mtx-%d-%d" seed k));
  let done_ () =
    Array.for_all
      (fun node -> Abc.delivered_count (Recovery.abc node) >= payloads)
      nodes
  in
  Sim.run ~max_steps ~until:done_ sim;
  let fold f =
    Array.fold_left (fun acc node -> max acc (f node)) 0 nodes
  in
  ( fold (fun nd -> Abc.log_peak (Recovery.abc nd)),
    fold (fun nd -> Abc.retired_rounds (Recovery.abc nd)),
    fold Recovery.certified_round )

let memory_probe env ~payloads ~seed =
  let on_peak, on_retired, on_ckpt =
    memory_run env ~payloads ~interval ~seed
  in
  let off_peak, _, _ = memory_run env ~payloads ~interval:0 ~seed in
  {
    m_gc_on_peak = on_peak;
    m_gc_on_retired = on_retired;
    m_gc_on_ckpt_round = on_ckpt;
    m_gc_off_peak = off_peak;
  }

(* ---------- the campaign ---------------------------------------------- *)

(* The forged sweep witnessed at least one explicit rejection.  Per-run
   counts can legitimately be zero — the forged reply is a raw frame, so
   lossy chaos can eat every copy before the honest quorum installs —
   but across a sweep the forger must have been caught red-handed.  The
   per-run guarantee ("never installed") is enforced by certificate
   verification and checked by the digest-history oracles. *)
let forged_witnessed results =
  let forged = List.filter (fun r -> r.jr_forged) results in
  forged = [] || List.exists (fun r -> r.jr_rejected > 0) forged

let run_json r =
  [
    ("victim", Obs_json.Int r.jr_victim);
    ("recovered", Obs_json.Bool r.jr_recovered);
    ("transferred", Obs_json.Bool r.jr_transferred);
    ("transfer_bytes", Obs_json.Int r.jr_transfer_bytes);
    ("rejected", Obs_json.Int r.jr_rejected);
    ("log_peak", Obs_json.Int r.jr_log_peak);
    ("retired", Obs_json.Int r.jr_retired);
    ("ckpt_round", Obs_json.Int r.jr_ckpt_round);
  ]

(* The gate, with the memory probe's rows.  The bounded-memory
   invariant: the GC'd log stays below the unbounded one. *)
let close ~seed env (t : Sweep.totals) results =
  let total f = float (Sweep.sum f results) in
  let m = memory_probe env ~payloads:memory_payloads ~seed in
  Report.
    [
      must Lower "safety violations" ~limit:0.0 (float t.safety);
      threshold Lower "liveness violations" (float t.liveness);
      must Higher "recovered runs" ~limit:(float t.runs)
        (total (fun r -> Bool.to_int r.jr_recovered));
      threshold Higher "state transfers"
        (total (fun r -> Bool.to_int r.jr_transferred));
      threshold Lower "transfer bytes" (total (fun r -> r.jr_transfer_bytes));
      info "forged replies rejected" (total (fun r -> r.jr_rejected));
      threshold Lower "steps" (float t.steps);
      threshold Lower "GC'd log peak"
        ~limit:(float (m.m_gc_off_peak - 1))
        (float m.m_gc_on_peak);
      info "GC'd log retired rounds" (float m.m_gc_on_retired);
      info "GC'd log checkpoint round" (float m.m_gc_on_ckpt_round);
      info "un-GC'd log peak" (float m.m_gc_off_peak);
      (* A revived replica is amnesiac: catching up without a certified
         transfer would resurrect state out of thin air. *)
      must Lower "crash-rejoins without transfer" ~limit:0.0
        (total (fun r ->
             Bool.to_int
               (r.jr_scenario = Crash_rejoin && not r.jr_transferred)));
      must Lower "forged sweep without a rejection" ~limit:0.0
        (float (Bool.to_int (not (forged_witnessed results))));
    ]

let campaign (core : Sweep.core) =
  let drop = Option.value core.drop ~default:drop
  and max_steps = Option.value core.max_steps ~default:max_steps in
  {
    Sweep.kind = Report.Recov;
    core;
    max_steps;
    key_offset = 9990;
    cells = Sweep.product [ Crash_rejoin; Partition_heal ] [ false; true ];
    label = cell_label;
    timeline = (fun (scenario, _) -> timeline ~drop scenario);
    run_one = run_one ~core ~max_steps;
    violations = (fun r -> r.jr_violations);
    steps = (fun r -> r.jr_steps);
    row = run_json;
    close = close ~seed:core.seed_base;
    constants =
      [ ("interval", Obs_json.Int interval);
        ("memory_payloads", Obs_json.Int memory_payloads) ];
  }
