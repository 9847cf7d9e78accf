(* Adversarial schedule search: a seeded hill-climber over the chaos
   step of a fault timeline — drop / delay / duplication / reordering
   rates plus a healing-partition window — maximising how badly the
   stack behaves under them.  Two objectives:

   - [Decide_time]: mean simulator steps to completion across the
     evaluation seeds, with a large penalty per undecided run, so the
     climber is pushed first towards schedules that stall runs outright
     and then towards the slowest ones that still decide;

   - [Buffer_peak]: the worst per-run link send-buffer depth — the
     back-pressure the retransmission machinery accumulates when the
     schedule starves acks; meaningful only with the link layer on, so
     that objective forces [link = true].

   The climber mutates one parameter per iteration (clamped to its
   range), accepts on strict improvement, and archives every distinct
   evaluated schedule; the top few become replayable fixtures
   (test/fixtures/worst_*.json, schema sintra-schedule/2) that the test
   suite re-runs, asserting that they reproduce their recorded score and
   that even the worst schedules the search found never cost safety —
   the paper's claim under exactly the adversary the search plays.

   Everything is derived from [params.search_seed]: same seed, same
   mutations, same evaluations, same fixtures, byte for byte. *)

(* ---------- the searched parameters --------------------------------- *)

(* The climb's state is the spec of a fault timeline's one [Start] chaos
   step, read as seven parameters: the default link's drop, delay, duplication and
   reordering, then a healing partition's start, length and the fraction
   of parties (the first [round (frac * n)]) it cuts off — no partition
   when the window is shorter than 1 or the cut is empty, and a spec
   without one reads as 0, 0, 0. *)

let ranges =
  [| (0.0, 0.4); (0.0, 8.0); (0.0, 0.5); (0.0, 0.5); (0.0, 600.0);
     (0.0, 800.0); (0.0, 0.5) |]

let parameters ~n (c : Sim.chaos) =
  let l = c.Sim.default_link in
  let start, len, frac =
    match c.Sim.partitions with
    | [ { Sim.from_t; until_t; cells = cut :: _ } ] ->
      let frac = float_of_int (Pset.card cut) /. float_of_int n in
      (from_t, until_t -. from_t, frac)
    | _ -> (0.0, 0.0, 0.0)
  in
  [| l.Sim.drop; l.Sim.delay; l.Sim.duplicate; l.Sim.reorder; start; len;
     frac |]

let with_parameters ~n (c : Sim.chaos) v =
  let k = int_of_float (Float.round (v.(6) *. float_of_int n)) in
  let partitions =
    if v.(5) < 1.0 || k < 1 then []
    else
      [ { Sim.from_t = v.(4);
          until_t = v.(4) +. v.(5);
          cells =
            [ Pset.of_list (List.init k Fun.id);
              Pset.of_list (List.init (n - k) (fun i -> k + i)) ] } ]
  in
  let default_link =
    { Sim.drop = v.(0); delay = v.(1); duplicate = v.(2); reorder = v.(3) }
  in
  { c with Sim.default_link; partitions }

let timeline c = [ { Sweep.at = Sweep.Start; act = Sweep.Chaos c } ]

let chaos_of = function
  | [ { Sweep.at = Sweep.Start; act = Sweep.Chaos c } ] -> Ok c
  | _ -> Error "a searched timeline is one start-time chaos step"

(* A mild starting point: every knob slightly on, so a single mutation
   can already interact with the others. *)
let seed_chaos ~n =
  with_parameters ~n Sim.benign_chaos
    [| 0.02; 0.5; 0.05; 0.05; 50.0; 100.0; 0.25 |]

let seed_timeline ~n = timeline (seed_chaos ~n)

let clamp lo hi v = Float.max lo (Float.min hi v)

(* One parameter per step: scale-free perturbation by up to ±30% of its
   range, clamped. *)
let mutate rng ~n c =
  let v = parameters ~n c in
  let i = Prng.int rng (Array.length v) in
  let lo, hi = ranges.(i) in
  let step = (Prng.float rng -. 0.5) *. 0.6 *. (hi -. lo) in
  v.(i) <- clamp lo hi (v.(i) +. step);
  with_parameters ~n c v

(* Distinct schedules, up to printing precision. *)
let key ~n c =
  let v = parameters ~n c in
  Printf.sprintf "%.4f/%.4f/%.4f/%.4f/%.1f/%.1f/%.2f" v.(0) v.(1) v.(2) v.(3)
    v.(4) v.(5) v.(6)

(* ---------- evaluation ------------------------------------------------ *)

type objective = Decide_time | Buffer_peak

let objective_label = function
  | Decide_time -> "decide-time"
  | Buffer_peak -> "buffer-peak"

let objective_of_label = function
  | "decide-time" -> Some Decide_time
  | "buffer-peak" -> Some Buffer_peak
  | _ -> None

type params = {
  search_seed : int;  (* drives mutations; evaluation seeds are fixed *)
  iters : int;
  eval_seeds : int;
  seed_base : int;
  n : int;
  t : int;
  protocol : Campaign.protocol;
  payloads : int;
  link : bool;  (* forced on under Buffer_peak *)
  max_steps : int;
}

let default_params =
  {
    search_seed = 1;
    iters = 40;
    eval_seeds = 2;
    seed_base = 1;
    n = 4;
    t = 1;
    protocol = Campaign.P_abc;
    payloads = 2;
    link = false;
    max_steps = 60_000;
  }

let config_of p objective =
  let link = p.link || objective = Buffer_peak in
  Campaign.default_config ~seeds:p.eval_seeds ~seed_base:p.seed_base ~n:p.n
    ~t:p.t ~protocols:[ p.protocol ]
    ~mixes:[ { Campaign.m_name = "silent"; m_kind = Campaign.Silent } ]
    ~payloads:p.payloads ~max_steps:p.max_steps
    ?link:(if link then Some Link.default_policy else None)
    ()

(* Undecided runs dominate any decided one; among schedules with the
   same number of stalls, slower (more steps) wins. *)
let undecided_penalty p = float_of_int (10 * p.max_steps)

let score_of_results p objective results =
  match objective with
  | Decide_time ->
    let total =
      List.fold_left
        (fun acc (r : Campaign.run_result) ->
          acc
          +. float_of_int r.Campaign.r_steps
          +. (if r.Campaign.r_decided then 0.0 else undecided_penalty p))
        0.0 results
    in
    total /. float_of_int (max 1 (List.length results))
  | Buffer_peak ->
    List.fold_left
      (fun acc (r : Campaign.run_result) ->
        Float.max acc (float_of_int r.Campaign.r_buffer_peak))
      0.0 results

type eval = {
  e_timeline : Sweep.timeline;
  e_score : float;
  e_safety : int;  (* safety violations seen while evaluating *)
  e_decided : int;
  e_runs : int;
}

let evaluate env p objective c =
  let cfg = config_of p objective in
  let policy = { Campaign.p_name = "searched"; p_chaos = c } in
  let mix = List.hd cfg.Campaign.mixes in
  let results =
    List.init p.eval_seeds (fun i ->
        Campaign.run_one env cfg ~protocol:p.protocol ~policy ~mix
          ~seed:(p.seed_base + i))
  in
  {
    e_timeline = timeline c;
    e_score = score_of_results p objective results;
    e_safety =
      List.fold_left
        (fun a (r : Campaign.run_result) ->
          a + Oracle.count_safety r.Campaign.r_violations)
        0 results;
    e_decided =
      List.length (List.filter (fun r -> r.Campaign.r_decided) results);
    e_runs = List.length results;
  }

type outcome = {
  o_best : eval;
  o_archive : eval list;  (* distinct evaluated schedules, worst first *)
  o_evaluations : int;
}

let search ?(progress = fun _ -> ()) ?(params = default_params) ~objective ()
    =
  let env = Campaign.prepare (config_of params objective) in
  let rng = Prng.create ~seed:(params.search_seed * 2654435761 + 1) in
  let seen = Hashtbl.create 64 in
  let archive = ref [] in
  let evals = ref 0 in
  let n = params.n in
  let eval c =
    let e = evaluate env params objective c in
    incr evals;
    if not (Hashtbl.mem seen (key ~n c)) then begin
      Hashtbl.add seen (key ~n c) ();
      archive := e :: !archive
    end;
    progress (!evals, params.iters + 1, e.e_score);
    e
  in
  let current = ref (seed_chaos ~n, eval (seed_chaos ~n)) in
  for _ = 1 to params.iters do
    let candidate = mutate rng ~n (fst !current) in
    let e = eval candidate in
    if e.e_score > (snd !current).e_score then current := (candidate, e)
  done;
  let worst_first =
    List.stable_sort (fun a b -> compare b.e_score a.e_score) (List.rev !archive)
  in
  { o_best = snd !current; o_archive = worst_first; o_evaluations = !evals }

(* ---------- fixtures -------------------------------------------------- *)

let schema = "sintra-schedule/2"

let fixture_json ~params:p ~objective (e : eval) =
  let link = p.link || objective = Buffer_peak in
  Obs_json.Obj
    [ ("schema", Obs_json.Str schema);
      ("objective", Obs_json.Str (objective_label objective));
      ("score", Obs_json.Float e.e_score);
      ("timeline", Sweep.timeline_json e.e_timeline);
      ("link", Obs_json.Bool link);
      ( "eval",
        Obs_json.Obj
          [ ("n", Obs_json.Int p.n);
            ("t", Obs_json.Int p.t);
            ("protocol", Obs_json.Str (Campaign.protocol_label p.protocol));
            ("seeds", Obs_json.Int p.eval_seeds);
            ("seed_base", Obs_json.Int p.seed_base);
            ("payloads", Obs_json.Int p.payloads);
            ("max_steps", Obs_json.Int p.max_steps) ] );
      ( "provenance",
        Obs_json.Obj
          [ ("search_seed", Obs_json.Int p.search_seed);
            ("decided", Obs_json.Int e.e_decided);
            ("runs", Obs_json.Int e.e_runs);
            ("safety", Obs_json.Int e.e_safety) ] ) ]

let write_fixtures ~dir ~params ~objective (o : outcome) ~top =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let picked = List.filteri (fun i _ -> i < top) o.o_archive in
  List.mapi
    (fun i e ->
      Report.write
        (Filename.concat dir
           (Printf.sprintf "worst_%s_%d.json" (objective_label objective) i))
        (fixture_json ~params ~objective e))
    picked

(* Rebuild the evaluation a fixture describes and re-run it; the test
   suite checks it reproduces the recorded score and decided count with
   zero safety violations.  Structural problems are [Error]s. *)
let replay (doc : Obs_json.t) : (eval, string) result =
  let ok r = Result.fold ~ok:Fun.id ~error:failwith r in
  let get path conv = ok (Report.field doc path conv) in
  let known what of_string v =
    match of_string v with
    | Some x -> x
    | None -> Printf.ksprintf failwith "unknown %s %S" what v
  in
  let parse () =
    if get [ "schema" ] Obs_json.to_str <> schema then
      failwith ("expected schema " ^ schema);
    let tl = ok (Sweep.timeline_of_json (get [ "timeline" ] Option.some)) in
    let chaos = ok (chaos_of tl) in
    let int k = get [ "eval"; k ] Obs_json.to_int in
    let objective = get [ "objective" ] Obs_json.to_str in
    let protocol = get [ "eval"; "protocol" ] Obs_json.to_str in
    ( known "objective" objective_of_label objective,
      chaos,
      { default_params with
        n = int "n"; t = int "t"; eval_seeds = int "seeds";
        seed_base = int "seed_base"; payloads = int "payloads";
        max_steps = int "max_steps"; link = get [ "link" ] Obs_json.to_bool;
        protocol = known "protocol" Campaign.protocol_of_string protocol } )
  in
  match parse () with
  | exception Failure e -> Error e
  | objective, chaos, p -> (
    (* [Sim.set_chaos] rejects out-of-range rates and empty windows. *)
    let env = Campaign.prepare (config_of p objective) in
    try Ok (evaluate env p objective chaos) with Invalid_argument e -> Error e)
