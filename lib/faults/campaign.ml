(* Seed-sweep fault campaigns: seeds × chaos policies × corruption mixes
   per protocol, with oracle checking and a machine-readable report.

   Every run is fully determined by (protocol, policy, mix, seed): the
   simulator schedule, the chaos draws and the Byzantine behaviours all
   derive from the seed, so any violation the sweep finds is replayable
   in isolation.  The corrupted set rotates through the maximal sets of
   the adversary structure, so over a sweep every worst-case corruption
   is exercised.

   Reporting distinguishes safety from liveness violations: lossy chaos
   specs ({!reliable} false) break the paper's reliable-channel
   assumption, so their liveness violations are recorded but are not
   limited in the report; safety violations always are.  Enabling the reliable link
   layer ([~link]) flips that for the specs it can repair
   ({!link_restores}): retransmission restores eventual delivery, the
   reliable-channel assumption holds again, and those runs gate on
   liveness like any reliable spec. *)

type policy_spec = { p_name : string; p_chaos : Sim.chaos }

(* Every partition heals, so the link layer's retransmission repairs any
   loss; with no drop on any link either, channels deliver eventually on
   their own and liveness oracles remain meaningful. *)
let link_restores (c : Sim.chaos) =
  List.for_all (fun pa -> pa.Sim.until_t < infinity) c.Sim.partitions

let reliable (c : Sim.chaos) =
  link_restores c
  && List.for_all
       (fun l -> l.Sim.drop = 0.0)
       (c.Sim.default_link :: List.map snd c.Sim.links)

let timeline policy =
  [ { Sweep.at = Sweep.Start; act = Sweep.Chaos policy.p_chaos } ]

(* A fault run has no stream to time a progress trigger by and no
   victim: its faults are start-time chaos specs only. *)
let chaos_specs tl =
  List.map
    (function
      | { Sweep.at = Sweep.Start; act = Sweep.Chaos c } -> c
      | _ ->
        invalid_arg "Campaign: a fault run takes start-time chaos steps only")
    tl

type mix_kind = Silent | Crash_at of float | Byz

type mix = { m_name : string; m_kind : mix_kind }

type protocol = P_abba | P_abc

let protocol_label = function P_abba -> "abba" | P_abc -> "abc"

type cell = protocol * policy_spec * mix

let cell_label (protocol, policy, mix) =
  String.concat "/" [ protocol_label protocol; policy.p_name; mix.m_name ]

(* ---------- the cells ------------------------------------------------- *)

let drop_policy rate = { p_name = "drop"; p_chaos = Sweep.lossy rate }

let dup_reorder_policy =
  let rate = 0.1 in
  {
    p_name = "dup-reorder";
    p_chaos =
      {
        Sim.benign_chaos with
        default_link = { Sim.no_fault with duplicate = rate; reorder = rate };
      };
  }

let partition_policy ~n =
  (* Split the servers into halves for a virtual-time window long enough
     to stall several protocol rounds, then heal. *)
  let lower = Pset.of_list (List.init (n / 2) Fun.id)
  and upper = Pset.of_list (List.init (n - (n / 2)) (fun i -> (n / 2) + i)) in
  {
    p_name = "partition";
    p_chaos =
      {
        Sim.benign_chaos with
        partitions = [ { Sim.from_t = 50.0; until_t = 400.0; cells = [ lower; upper ] } ];
      };
  }

(* The three built-in policies at 2% drop, or with the link on 30% drop
   alone, which the link makes liveness-gating. *)
let policies ~link ~n drop =
  if link then [ drop_policy (Option.value drop ~default:0.3) ]
  else
    [ drop_policy (Option.value drop ~default:0.02); dup_reorder_policy;
      partition_policy ~n ]

let mixes =
  [
    { m_name = "silent"; m_kind = Silent };
    { m_name = "crash"; m_kind = Crash_at 150.0 };
    { m_name = "byzantine"; m_kind = Byz };
  ]

(* ---------- single runs ----------------------------------------------- *)

type run_result = {
  r_protocol : string;
  r_policy : string;
  r_mix : string;
  r_seed : int;
  r_corrupted : Pset.t;
  r_reliable : bool;
      (* effective: the spec delivers eventually, or the link layer
         restores delivery ([link_restores] with the link on) —
         exactly the runs whose liveness violations gate *)
  r_violations : Oracle.violation list;
  r_decide_clock : float option;  (* virtual time of the last honest decision *)
  r_decided : bool;  (* every honest party finished within max_steps *)
  r_chaos_drops : int;
  r_chaos_dups : int;
  r_chaos_reorders : int;
  r_link_retransmits : int;  (* link-layer retransmissions in this run *)
  r_steps : int;  (* simulator steps this run consumed *)
  r_buffer_peak : int;
      (* max link send-buffer depth across this run's endpoints (0 with
         the link off) — the back-pressure signal the schedule search
         maximises *)
}

(* The corrupted set for a given seed: rotate through A* so a sweep
   covers every maximal corruption of the structure. *)
let corrupted_set keyring seed =
  let sets = Adversary_structure.maximal_adversary_sets keyring.Keyring.structure in
  match sets with
  | [] -> Pset.empty
  | _ -> List.nth sets (abs seed mod List.length sets)

let abba_behavior ~tag = function
  | Silent -> Byzantine.silent
  | Crash_at at -> Byzantine.crash_at at
  | Byz -> Byzantine.For_abba.byzantine ~tag ()

let abc_behavior ~tag = function
  | Silent -> Byzantine.silent
  | Crash_at at -> Byzantine.crash_at at
  | Byz -> Byzantine.For_abc.byzantine ~tag ()

(* Corrupted parties still run the protocol's sending side (propose /
   broadcast) only when the behaviour starts from honest logic. *)
let mix_sends_honestly = function
  | Silent | Byz -> false
  | Crash_at _ -> true

(* Effective reliability: every chaos spec of the timeline delivers
   eventually on its own, or the link layer is on and repairs it. *)
let effective_reliable ~link specs =
  List.for_all (fun c -> reliable c || (link <> None && link_restores c)) specs

(* Per-run link retransmission counts come from the shared registry
   counter (the link endpoints of every run increment the same handle),
   metered as a before/after delta around the run. *)
let link_retransmit_counter obs =
  Obs.counter obs ~labels:[ ("layer", "link") ] "link_retransmit"

(* Max link send-buffer depth across a run's endpoints, via the
   [?on_link] deployment hook (0 with the link off).  Probes are stored
   as thunks so one helper serves every protocol's endpoint type. *)
let peak_probe () =
  let probes : (unit -> int) list ref = ref [] in
  let on_link _me ep = probes := (fun () -> Link.buffer_peak ep) :: !probes in
  let peak () = List.fold_left (fun acc f -> max acc (f ())) 0 !probes in
  (on_link, peak)

(* The protocol-specific part of a run: deploy over [sim], start the
   workload, and return the completion predicate plus the post-run
   oracles.  [note_decide p] marks party [p] finished. *)

let abba_workload ~link ~mix ~seed ~sim ~keyring ~wrap ~on_link ~tag ~honest
    ~note_decide =
  let n = Sim.n sim in
  let decisions = Array.make n None in
  let nodes =
    Stack.deploy_abba ~wrap ?link ~on_link ~sim ~keyring ~tag
      ~on_decide:(fun p b ->
        if decisions.(p) = None then begin
          decisions.(p) <- Some b;
          note_decide p
        end)
      ()
  in
  let rng = Prng.create ~seed:(seed * 7919 + 11) in
  let proposals = Array.init n (fun _ -> Prng.bool rng) in
  Array.iteri
    (fun p node ->
      if Pset.mem p honest || mix_sends_honestly mix.m_kind then
        Abba.propose node proposals.(p))
    nodes;
  ( (fun () -> Pset.for_all (fun p -> decisions.(p) <> None) honest),
    fun () -> Oracle.check_abba ~honest ~proposals decisions )

type abc_workload = {
  nodes : Abc.t array;
  logs : string list array;  (* per party, newest first *)
  finished : unit -> bool;
  check : unit -> Oracle.violation list;
}

let abc_workload ?wrap ?on_link ?policy ?link ?(on_deliver = fun _ _ -> ())
    ~sim ~keyring ~tag ~honest payloads =
  let expected = List.length payloads in
  let logs = Array.make (Sim.n sim) [] in
  let nodes =
    Stack.deploy_abc ?wrap ?policy ?link ?on_link ~sim ~keyring ~tag
      ~deliver:(fun p payload ->
        logs.(p) <- payload :: logs.(p);
        on_deliver p (List.length logs.(p)))
      ()
  in
  (* Submit the payloads round-robin from the honest parties, so total
     order must reconcile genuinely concurrent senders. *)
  let submitters = Array.of_list (Pset.to_list honest) in
  List.iteri
    (fun k payload ->
      Abc.broadcast nodes.(submitters.(k mod Array.length submitters)) payload)
    payloads;
  { nodes;
    logs;
    finished =
      (fun () -> Pset.for_all (fun p -> List.length logs.(p) >= expected) honest);
    check =
      (fun () -> Oracle.check_abc ~honest ~expected (Array.map List.rev logs)) }

let run_with env ~max_steps ~protocol ~policy ~mix ~seed ~tag ~reliable
    ~timeline ~behavior sim workload =
  let { Sweep.keyring; obs; flight } = env in
  let corrupted = corrupted_set keyring seed in
  let honest = Pset.diff (Pset.full (Sim.n sim)) corrupted in
  ignore (Sweep.start env sim timeline);
  let on_link, peak = peak_probe () in
  let last_decide = ref None in
  let note_decide p =
    if Pset.mem p honest then last_decide := Some (Sim.clock sim)
  in
  let wrap =
    Byzantine.wrap_of ~sim ~keyring ~seed:(seed lxor 0x5eed) ~set:corrupted
      behavior
  in
  let retx = link_retransmit_counter obs in
  let retx0 = Obs_registry.value retx in
  let done_, oracles =
    workload ~sim ~keyring ~wrap ~on_link ~tag ~honest ~note_decide
  in
  let stall = Sweep.run_sim sim ~max_steps ~until:done_ in
  let violations = oracles () @ stall in
  let decided = done_ () in
  let decide_clock = if decided then !last_decide else None in
  let steps = Sim.steps sim and buffer_peak = peak () in
  Flight.note_buffer_peak flight buffer_peak;
  let m = Sim.metrics sim in
  {
    r_protocol = protocol;
    r_policy = policy.p_name;
    r_mix = mix.m_name;
    r_seed = seed;
    r_corrupted = corrupted;
    r_reliable = reliable;
    r_violations = violations;
    r_decide_clock = decide_clock;
    r_decided = decided;
    r_chaos_drops = m.Metrics.chaos_drops;
    r_chaos_dups = m.Metrics.chaos_dups;
    r_chaos_reorders = m.Metrics.chaos_reorders;
    r_link_retransmits = Obs_registry.value retx - retx0;
    r_steps = steps;
    r_buffer_peak = buffer_peak;
  }

(* Liveness violations under reliable chaos specs — the only ones that
   falsify the paper's claims, hence the only ones that gate. *)
let gating_liveness_count results =
  Sweep.sum
    (fun r -> if r.r_reliable then Oracle.count_liveness r.r_violations else 0)
    results

let run_one ~abc_policy ~link ~(core : Sweep.core) ~max_steps env
    ((protocol, policy, mix) : cell) ~seed timeline =
  let reliable = effective_reliable ~link (chaos_specs timeline) in
  let sim () = Sim.create ~n:core.n ~seed ~obs:env.Sweep.obs () in
  let label = protocol_label protocol in
  let tag = Printf.sprintf "flt-%s-%d" label seed in
  let payloads = core.size in
  let r =
    match protocol with
    | P_abba ->
      run_with env ~max_steps ~protocol:label ~policy ~mix ~seed ~tag
        ~reliable ~timeline
        ~behavior:(abba_behavior ~tag mix.m_kind)
        (sim ()) (abba_workload ~link ~mix ~seed)
    | P_abc ->
      run_with env ~max_steps ~protocol:label ~policy ~mix ~seed ~tag
        ~reliable ~timeline
        ~behavior:(abc_behavior ~tag mix.m_kind)
        (sim ())
        (fun ~sim ~keyring ~wrap ~on_link ~tag ~honest ~note_decide ->
          let w =
            abc_workload ~wrap ~on_link ~policy:abc_policy ?link ~sim ~keyring
              ~tag ~honest
              ~on_deliver:(fun p k -> if k >= payloads then note_decide p)
              (List.init payloads (fun k -> Printf.sprintf "tx-%d-%d" seed k))
          in
          (w.finished, w.check))
  in
  Option.iter
    (Obs.observe env.Sweep.obs
       ~labels:[ ("layer", "faults"); ("protocol", r.r_protocol) ]
       "decide_time")
    r.r_decide_clock;
  r

(* ---------- report output --------------------------------------------- *)

let link_policy_json (p : Link.policy) =
  Obs_json.Obj
    [
      ("rto", Obs_json.Float p.Link.rto);
      ("backoff", Obs_json.Float p.Link.backoff);
      ("max_rto", Obs_json.Float p.Link.max_rto);
      ("jitter", Obs_json.Float p.Link.jitter);
      ("window", Obs_json.Int p.Link.window);
      ("seed", Obs_json.Int p.Link.seed);
    ]

(* A run's own fields: enough to audit the gating flip (which runs
   became liveness-gating, whether and when they decided) and to
   attribute the link layer's repair work (retransmissions, buffer peak)
   to individual runs. *)
let run_json r =
  [
    ("gating", Obs_json.Bool r.r_reliable);
    ("decided", Obs_json.Bool r.r_decided);
    ( "decide_clock",
      match r.r_decide_clock with
      | None -> Obs_json.Null
      | Some t -> Obs_json.Float t );
    ("retransmits", Obs_json.Int r.r_link_retransmits);
    ("buffer_peak", Obs_json.Int r.r_buffer_peak);
  ]

(* The runner's settings besides the core and the cells. *)
let constants ~abc_policy ~link =
  [
    ( "abc_policy",
      Obs_json.Obj
        [
          ("max_batch_msgs", Obs_json.Int abc_policy.Abc.max_batch_msgs);
          ("max_batch_bytes", Obs_json.Int abc_policy.Abc.max_batch_bytes);
          ("window", Obs_json.Int abc_policy.Abc.window);
        ] );
    ( "link",
      match link with None -> Obs_json.Null | Some p -> link_policy_json p );
  ]

let result_label r = String.concat "/" [ r.r_protocol; r.r_policy; r.r_mix ]
let every f r = Some (float (f r))

(* The per-cell regression rows, cells in execution order: decided runs
   (strict), decide-clock p95 ({!Obs_histogram.percentile}), mean steps
   and retransmits, and the buffer-peak max. *)
let cell_gate results =
  let labels =
    List.fold_left
      (fun acc r ->
        let l = result_label r in
        if List.mem l acc then acc else l :: acc)
      [] results
    |> List.rev
  in
  List.concat_map
    (fun tag ->
      let rs = List.filter (fun r -> result_label r = tag) results in
      let stat f value =
        let h = Obs_histogram.create () in
        List.iter (fun r -> Option.iter (Obs_histogram.observe h) (value r)) rs;
        Option.value (f h) ~default:0.0
      in
      Report.
        [ strict Higher (tag ^ " decided")
            (float (List.length (List.filter (fun r -> r.r_decided) rs)));
          threshold Lower (tag ^ " decide_clock p95")
            (stat (fun h -> Obs_histogram.percentile h 95.0) (fun r ->
                 r.r_decide_clock));
          threshold Lower (tag ^ " steps mean")
            (stat Obs_histogram.mean (every (fun r -> r.r_steps)));
          threshold Lower (tag ^ " retransmits mean")
            (stat Obs_histogram.mean (every (fun r -> r.r_link_retransmits)));
          threshold Lower (tag ^ " buffer_peak max")
            (stat Obs_histogram.max_value (every (fun r -> r.r_buffer_peak)))
        ])
    labels

(* The acceptance rows, the sweep totals and the per-cell rows. *)
let close _env (t : Sweep.totals) results =
  let total f = Sweep.sum f results in
  Report.
    [
      must Lower "safety violations" ~limit:0.0 (float t.safety);
      must Lower "gating liveness violations" ~limit:0.0
        (float (gating_liveness_count results));
      threshold Lower "liveness violations" (float t.liveness);
      threshold Lower "link retransmits"
        (float (total (fun r -> r.r_link_retransmits)));
      (* an undecided gating run is a liveness violation whether or not
         an oracle named it *)
      must Lower "undecided gating runs" ~limit:0.0
        (float
           (total (fun r -> Bool.to_int (r.r_reliable && not r.r_decided))));
    ]
  @ cell_gate results

let max_steps = 200_000

let campaign ?(abc_policy = Abc.default_policy) ~link (core : Sweep.core) =
  let cells =
    List.concat_map
      (fun (protocol, policy) ->
        List.map (fun mix -> (protocol, policy, mix)) mixes)
      (Sweep.product [ P_abba; P_abc ] (policies ~link ~n:core.n core.drop))
  and link = if link then Some Link.default_policy else None
  and max_steps = Option.value core.max_steps ~default:max_steps in
  {
    Sweep.kind = Report.Faults;
    core;
    max_steps;
    key_offset = 7770;
    cells;
    label = cell_label;
    timeline = (fun (_, policy, _) -> timeline policy);
    run_one = run_one ~abc_policy ~link ~core ~max_steps;
    violations = (fun r -> r.r_violations);
    steps = (fun r -> r.r_steps);
    row = run_json;
    close;
    constants = constants ~abc_policy ~link;
  }
