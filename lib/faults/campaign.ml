(* Seed-sweep fault campaigns: seeds × chaos policies × corruption mixes
   per protocol, with oracle checking and a machine-readable report.

   Every run is fully determined by (protocol, policy, mix, seed): the
   simulator schedule, the chaos draws and the Byzantine behaviours all
   derive from the seed, so any violation the sweep finds is replayable
   in isolation.  The corrupted set rotates through the maximal sets of
   the adversary structure, so over a sweep every worst-case corruption
   is exercised.

   Reporting distinguishes safety from liveness violations: lossy chaos
   specs ([p_reliable = false]) break the paper's reliable-channel
   assumption, so their liveness violations are recorded but do not gate
   ({!ok}); safety violations always gate.  Enabling the reliable link
   layer ([config.link]) flips that for the specs it can repair
   ([p_link_restores]): retransmission restores eventual delivery, the
   reliable-channel assumption holds again, and those runs gate on
   liveness like any reliable spec. *)

type policy_spec = {
  p_name : string;
  p_chaos : Sim.chaos;
  p_reliable : bool;
      (* channels still deliver eventually (duplication, reordering,
         healing partitions) — liveness oracles remain meaningful *)
  p_link_restores : bool;
      (* the link layer's retransmission repairs this spec's losses
         (probabilistic drops, no permanent partition), so with
         [config.link] set the run becomes liveness-gating *)
}

type mix_kind = Silent | Crash_at of float | Byz

type mix = { m_name : string; m_kind : mix_kind }

type protocol = P_abba | P_abc

let protocol_label = function P_abba -> "abba" | P_abc -> "abc"

let protocol_of_string = function
  | "abba" -> Some P_abba
  | "abc" -> Some P_abc
  | _ -> None

type config = {
  core : Sweep.core;
  protocols : protocol list;
  policies : policy_spec list;
  mixes : mix list;
  payloads : int;  (* atomic-broadcast payloads per run *)
  abc_policy : Abc.policy;  (* batching / pipelining policy of ABC runs *)
  link : Link.policy option;  (* reliable link layer (None = off) *)
}

(* ---------- defaults -------------------------------------------------- *)

let drop_policy ?(rate = 0.02) () =
  {
    p_name = "drop";
    p_reliable = false;
    (* no permanent partition: retransmission eventually gets through *)
    p_link_restores = true;
    p_chaos =
      { Sim.benign_chaos with default_link = { Sim.no_fault with drop = rate } };
  }

let dup_reorder_policy ?(rate = 0.1) () =
  {
    p_name = "dup-reorder";
    p_reliable = true;
    p_link_restores = false;
    p_chaos =
      {
        Sim.benign_chaos with
        default_link = { Sim.no_fault with duplicate = rate; reorder = rate };
      };
  }

let partition_policy ~n () =
  (* Split the servers into halves for a virtual-time window long enough
     to stall several protocol rounds, then heal. *)
  let lower = Pset.of_list (List.init (n / 2) Fun.id)
  and upper = Pset.of_list (List.init (n - (n / 2)) (fun i -> (n / 2) + i)) in
  {
    p_name = "partition";
    p_reliable = true;
    p_link_restores = false;
    p_chaos =
      {
        Sim.benign_chaos with
        partitions = [ { Sim.from_t = 50.0; until_t = 400.0; cells = [ lower; upper ] } ];
      };
  }

let default_policies ~n = [ drop_policy (); dup_reorder_policy (); partition_policy ~n () ]

let default_mixes =
  [
    { m_name = "silent"; m_kind = Silent };
    { m_name = "crash"; m_kind = Crash_at 150.0 };
    { m_name = "byzantine"; m_kind = Byz };
  ]

let default_config ?(seeds = 50) ?seed_base ?n ?t ?rsa_bits ?group_bits
    ?protocols ?policies ?mixes ?(payloads = 2)
    ?(abc_policy = Abc.default_policy) ?link ?(max_steps = 200_000) () =
  let core =
    Sweep.core ?seed_base ?n ?t ?rsa_bits ?group_bits ~seeds ~max_steps ()
  in
  {
    core;
    protocols = Option.value protocols ~default:[ P_abba; P_abc ];
    policies = Option.value policies ~default:(default_policies ~n:core.n);
    mixes = Option.value mixes ~default:default_mixes;
    payloads;
    abc_policy;
    link;
  }

(* ---------- single runs ----------------------------------------------- *)

type run_result = {
  r_protocol : string;
  r_policy : string;
  r_mix : string;
  r_seed : int;
  r_corrupted : Pset.t;
  r_reliable : bool;
      (* effective: the spec delivers eventually, or the link layer
         restores delivery ([p_link_restores] with [config.link] set) —
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

(* Effective reliability: the chaos spec delivers eventually on its own,
   or the link layer is on and repairs it. *)
let effective_reliable cfg policy =
  policy.p_reliable || (cfg.link <> None && policy.p_link_restores)

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

let abba_workload cfg ~mix ~seed ~sim ~keyring ~wrap ~on_link ~tag ~honest
    ~note_decide =
  let n = cfg.core.n in
  let decisions = Array.make n None in
  let nodes =
    Stack.deploy_abba ~wrap ?link:cfg.link ~on_link ~sim ~keyring ~tag
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

let abc_workload cfg ~seed ~sim ~keyring ~wrap ~on_link ~tag ~honest
    ~note_decide =
  let expected = cfg.payloads in
  let logs_rev = Array.make cfg.core.n [] in
  let nodes =
    Stack.deploy_abc ~wrap ~policy:cfg.abc_policy ?link:cfg.link ~on_link ~sim
      ~keyring ~tag
      ~deliver:(fun p payload ->
        logs_rev.(p) <- payload :: logs_rev.(p);
        if List.length logs_rev.(p) >= expected then note_decide p)
      ()
  in
  (* Submit the payloads round-robin from the honest parties, so total
     order must reconcile genuinely concurrent senders. *)
  let submitters = Pset.to_list honest in
  List.iteri
    (fun k payload ->
      let s = List.nth submitters (k mod List.length submitters) in
      Abc.broadcast nodes.(s) payload)
    (List.init expected (fun k -> Printf.sprintf "tx-%d-%d" seed k));
  ( (fun () ->
      Pset.for_all (fun p -> List.length logs_rev.(p) >= expected) honest),
    fun () -> Oracle.check_abc ~honest ~expected (Array.map List.rev logs_rev) )

let run_with ?flight env cfg ~protocol ~policy ~mix ~seed ~tag ~behavior sim
    workload =
  let { Sweep.keyring; obs } = env in
  let corrupted = corrupted_set keyring seed in
  let honest = Pset.diff (Pset.full cfg.core.n) corrupted in
  Sim.set_chaos sim (Some policy.p_chaos);
  Sweep.flight_begin flight sim;
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
  let stall =
    Sweep.run_sim ?flight sim ~max_steps:cfg.core.max_steps ~until:done_
  in
  let violations = oracles () @ stall in
  let decided = done_ () in
  let decide_clock = if decided then !last_decide else None in
  let steps = Sim.steps sim and buffer_peak = peak () in
  let reliable = effective_reliable cfg policy in
  Sweep.flight_end flight
    ~key:{ Flight.protocol; policy = policy.p_name; mix = mix.m_name; seed }
    ~violations ~decided ~gating:reliable ~decide_clock ~steps ~buffer_peak;
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

(* ---------- the sweep ------------------------------------------------- *)

type report = {
  config : config;
  results : run_result list;  (* in execution order *)
  obs : Obs.t;  (* accumulated sim metrics + decide-time histograms *)
}

let safety_count rep =
  Sweep.sum (fun r -> Oracle.count_safety r.r_violations) rep.results

let liveness_count rep =
  Sweep.sum (fun r -> Oracle.count_liveness r.r_violations) rep.results

(* Liveness violations under reliable chaos specs — the only ones that
   falsify the paper's claims, hence the only ones that gate. *)
let gating_liveness_count rep =
  Sweep.sum
    (fun r -> if r.r_reliable then Oracle.count_liveness r.r_violations else 0)
    rep.results

let ok rep = safety_count rep = 0 && gating_liveness_count rep = 0

(* Dealing the toy keyring dominates campaign start-up; [prepare] does
   it once so repeated sweeps over the same (n, t, bits) — the
   adversarial schedule search evaluates hundreds of candidate chaos
   specs — share the environment. *)
let prepare cfg = Sweep.prepare ~key_offset:7770 cfg.core

let run_one ?flight env cfg ~protocol ~policy ~mix ~seed =
  let sim () = Sim.create ~n:cfg.core.n ~seed ~obs:env.Sweep.obs () in
  let label = protocol_label protocol in
  let tag = Printf.sprintf "flt-%s-%d" label seed in
  match protocol with
  | P_abba ->
    run_with ?flight env cfg ~protocol:label ~policy ~mix ~seed ~tag
      ~behavior:(abba_behavior ~tag mix.m_kind)
      (sim ()) (abba_workload cfg ~mix ~seed)
  | P_abc ->
    run_with ?flight env cfg ~protocol:label ~policy ~mix ~seed ~tag
      ~behavior:(abc_behavior ~tag mix.m_kind)
      (sim ()) (abc_workload cfg ~seed)

let run_prepared ?progress ?flight env cfg =
  let cells =
    Sweep.product (Sweep.product cfg.protocols cfg.policies) cfg.mixes
  in
  let results =
    Sweep.sweep ?progress cfg.core cells (fun ((protocol, policy), mix) ~seed ->
        let r = run_one ?flight env cfg ~protocol ~policy ~mix ~seed in
        Option.iter
          (Obs.observe env.Sweep.obs
             ~labels:[ ("layer", "faults"); ("protocol", r.r_protocol) ]
             "decide_time")
          r.r_decide_clock;
        r)
  in
  { config = cfg; results; obs = env.Sweep.obs }

let run ?progress ?flight cfg = run_prepared ?progress ?flight (prepare cfg) cfg

(* ---------- report output --------------------------------------------- *)

let out_path id = Printf.sprintf "FAULTS_%s.json" id

let violation_json r (v : Oracle.violation) =
  Obs_json.Obj
    [
      ("protocol", Obs_json.Str r.r_protocol);
      ("policy", Obs_json.Str r.r_policy);
      ("mix", Obs_json.Str r.r_mix);
      ("seed", Obs_json.Int r.r_seed);
      ("oracle", Obs_json.Str v.Oracle.oracle);
      ("severity", Obs_json.Str (Oracle.severity_label v.Oracle.severity));
      ( "party",
        match v.Oracle.party with
        | None -> Obs_json.Null
        | Some p -> Obs_json.Int p );
      ("detail", Obs_json.Str v.Oracle.detail);
    ]

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

(* One row per run: enough to audit the gating flip (which runs became
   liveness-gating, whether they decided) and to attribute the link
   layer's repair work (retransmissions) to individual runs. *)
let link_run_json r =
  Obs_json.Obj
    [
      ("protocol", Obs_json.Str r.r_protocol);
      ("policy", Obs_json.Str r.r_policy);
      ("mix", Obs_json.Str r.r_mix);
      ("seed", Obs_json.Int r.r_seed);
      ("gating", Obs_json.Bool r.r_reliable);
      ("decided", Obs_json.Bool r.r_decided);
      ("retransmits", Obs_json.Int r.r_link_retransmits);
    ]

(* The configuration echo, shared between the FAULTS report and the
   flight recorder's FLIGHT summary, so each file records what produced
   it. *)
let config_json cfg =
  Obs_json.Obj
    (Sweep.core_fields cfg.core
    @ [
        ("payloads", Obs_json.Int cfg.payloads);
        ( "abc_policy",
          Obs_json.Obj
            [
              ("max_batch_msgs", Obs_json.Int cfg.abc_policy.Abc.max_batch_msgs);
              ("max_batch_bytes", Obs_json.Int cfg.abc_policy.Abc.max_batch_bytes);
              ("window", Obs_json.Int cfg.abc_policy.Abc.window);
            ] );
        ("link_enabled", Obs_json.Bool (cfg.link <> None));
        ( "protocols",
          Obs_json.Arr
            (List.map (fun p -> Obs_json.Str (protocol_label p)) cfg.protocols)
        );
        ( "policies",
          Obs_json.Arr
            (List.map
               (fun p ->
                 Obs_json.Obj
                   [
                     ("name", Obs_json.Str p.p_name);
                     ("reliable", Obs_json.Bool p.p_reliable);
                   ])
               cfg.policies) );
        ( "mixes",
          Obs_json.Arr (List.map (fun m -> Obs_json.Str m.m_name) cfg.mixes) );
      ])

let to_json ~id ~wall rep =
  let cfg = rep.config in
  let total f = Sweep.sum f rep.results in
  let details =
    List.concat_map
      (fun r -> List.map (violation_json r) r.r_violations)
      rep.results
  in
  Report.make Report.Faults ~experiment:id ~wall
    ~runs:(List.length rep.results) ~obs:rep.obs
    ~gate:
      Report.
        [
          strict Lower "safety violations" (float (safety_count rep));
          strict Lower "gating liveness violations"
            (float (gating_liveness_count rep));
          threshold Lower "liveness violations" (float (liveness_count rep));
          threshold Lower "link retransmits"
            (float (total (fun r -> r.r_link_retransmits)));
        ]
    [
      ("config", config_json cfg);
      ( "violations",
        Obs_json.Obj
          [
            ("safety", Obs_json.Int (safety_count rep));
            ("liveness", Obs_json.Int (liveness_count rep));
            ("liveness_gating", Obs_json.Int (gating_liveness_count rep));
          ] );
      ( "chaos",
        Obs_json.Obj
          [
            ("drops", Obs_json.Int (total (fun r -> r.r_chaos_drops)));
            ("dups", Obs_json.Int (total (fun r -> r.r_chaos_dups)));
            ("reorders", Obs_json.Int (total (fun r -> r.r_chaos_reorders)));
          ] );
      ( "link",
        Obs_json.Obj
          [
            ("enabled", Obs_json.Bool (cfg.link <> None));
            ( "policy",
              match cfg.link with
              | None -> Obs_json.Null
              | Some p -> link_policy_json p );
            ( "retransmits_total",
              Obs_json.Int (total (fun r -> r.r_link_retransmits)) );
            ("per_run", Obs_json.Arr (List.map link_run_json rep.results));
          ] );
      ( "violation_details",
        Obs_json.Arr (List.filteri (fun i _ -> i < 50) details) );
    ]

(* The faults report's own invariant: a run whose channels are
   (effectively) reliable — natively, or because the link layer restores
   delivery — must have decided.  An undecided gating row is a liveness
   violation dressed up as a report, so the document is rejected whole. *)
let validate_json (doc : Obs_json.t) : (unit, string) result =
  let open Report in
  let* h =
    expect Faults ~rows:[ "safety violations"; "gating liveness violations" ]
      doc
  in
  let* runs = run_count h in
  let* _ =
    rows ~runs doc [ "link"; "per_run" ] (fun row ->
        let* gating = field row [ "gating" ] Obs_json.to_bool in
        let* decided = field row [ "decided" ] Obs_json.to_bool in
        let* row_retx = field row [ "retransmits" ] Obs_json.to_int in
        let* seed = field row [ "seed" ] Obs_json.to_int in
        let* () = ensure (row_retx >= 0) "negative retransmits" in
        ensure ((not gating) || decided)
          "seed %d: gating run left undecided parties" seed)
  in
  Ok ()

(* ---------- summary --------------------------------------------------- *)

let pp_summary fmt rep =
  (* One line per (protocol, policy, mix) cell of the sweep. *)
  List.iter
    (fun ((proto, pol, mix), rs) ->
      let decided = List.filter_map (fun r -> r.r_decide_clock) rs in
      let count f = Sweep.sum (fun r -> f r.r_violations) rs in
      let safety = count Oracle.count_safety
      and liveness = count Oracle.count_liveness in
      let mean_clock =
        match decided with
        | [] -> nan
        | _ ->
          List.fold_left ( +. ) 0.0 decided
          /. float_of_int (List.length decided)
      in
      Format.fprintf fmt
        "%-5s %-11s %-10s %3d/%-3d decided  mean clock %7.0f  safety %d  liveness %d%s@."
        proto pol mix (List.length decided) (List.length rs) mean_clock safety
        liveness
        (if safety > 0 then "  << SAFETY VIOLATION" else ""))
    (Sweep.group (fun r -> (r.r_protocol, r.r_policy, r.r_mix)) rep.results);
  Format.fprintf fmt
    "total: %d runs, %d safety violations, %d liveness (%d gating)@."
    (List.length rep.results) (safety_count rep) (liveness_count rep)
    (gating_liveness_count rep);
  Option.iter
    (fun p ->
      Format.fprintf fmt
        "link: on (rto %g, backoff %g, window %d), %d retransmissions@."
        p.Link.rto p.Link.backoff p.Link.window
        (Sweep.sum (fun r -> r.r_link_retransmits) rep.results))
    rep.config.link
