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
   (test/fixtures/worst_*.json, schema sintra-schedule/3: a campaign of
   the table, one of its cells, a timeline) that the test suite re-runs,
   asserting that they reproduce their recorded score and that even the
   worst schedules the search found never cost safety — the paper's
   claim under exactly the adversary the search plays.  Replay takes any
   campaign's cell and timeline, not only the searched ones.

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
  core : Sweep.core;
  protocol : Campaign.protocol;
  link : bool;  (* forced on under Buffer_peak *)
}

let default_params =
  {
    search_seed = 1;
    iters = 40;
    core =
      { Sweep.seeds = 2; seed_base = 1; n = 4; t = 1; size = 2; drop = None;
        max_steps = Some 60_000 };
    protocol = Campaign.P_abc;
    link = false;
  }

(* The searched campaign is the faults sweep (with the link on under
   [Buffer_peak]) at the search's core; the climb evaluates one of its
   cells, the protocol under attack with the silent mix, under the
   searched timeline in place of the cell's own. *)
let link_on p objective = p.link || objective = Buffer_peak

let faults p objective =
  let c = Campaign.campaign ~link:(link_on p objective) p.core in
  let cell =
    List.find
      (fun (protocol, _, (mix : Campaign.mix)) ->
        protocol = p.protocol && mix.m_kind = Campaign.Silent)
      c.Sweep.cells
  in
  (c, cell)

type eval = {
  e_timeline : Sweep.timeline;
  e_score : float;
  e_safety : int;  (* safety violations seen while evaluating *)
  e_decided : int;
  e_runs : int;
}

(* A run has decided when it has no liveness violation.  Undecided runs
   dominate any decided one; among schedules with the same number of
   stalls, slower (more steps) wins. *)
let decided (c : (_, 'r) Sweep.campaign) r =
  Oracle.count_liveness (c.violations r) = 0

let decide_time (c : (_, 'r) Sweep.campaign) runs =
  let penalty r =
    if decided c r then 0.0 else float_of_int (10 * c.max_steps)
  in
  List.fold_left
    (fun acc r -> acc +. float_of_int (c.steps r) +. penalty r)
    0.0 runs
  /. float_of_int (max 1 (List.length runs))

let buffer_peak runs =
  List.fold_left
    (fun acc (r : Campaign.run_result) ->
      Float.max acc (float_of_int r.r_buffer_peak))
    0.0 runs

(* The cell over every seed of the campaign under the timeline. *)
let evaluate (c : ('c, 'r) Sweep.campaign) env cell tl ~score =
  let runs =
    List.init c.core.seeds (fun i ->
        c.run_one env cell ~seed:(c.core.seed_base + i) tl)
  in
  {
    e_timeline = tl;
    e_score = score runs;
    e_safety = Sweep.sum (fun r -> Oracle.count_safety (c.violations r)) runs;
    e_decided = List.length (List.filter (decided c) runs);
    e_runs = List.length runs;
  }

type outcome = {
  o_best : eval;
  o_archive : eval list;  (* distinct evaluated schedules, worst first *)
  o_evaluations : int;
}

let search ?(progress = fun _ -> ()) ?(params = default_params) ~objective ()
    =
  let c, cell = faults params objective in
  let env = Sweep.prepare c in
  let score =
    match objective with
    | Decide_time -> decide_time c
    | Buffer_peak -> buffer_peak
  in
  let rng = Prng.create ~seed:(params.search_seed * 2654435761 + 1) in
  let seen = Hashtbl.create 64 in
  let archive = ref [] in
  let evals = ref 0 in
  let n = params.core.n in
  let eval chaos =
    let e = evaluate c env cell (timeline chaos) ~score in
    incr evals;
    if not (Hashtbl.mem seen (key ~n chaos)) then begin
      Hashtbl.add seen (key ~n chaos) ();
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

let schema = "sintra-schedule/3"

let fixture_json ~params:p ~objective (e : eval) =
  let c, cell = faults p objective in
  let k = c.core in
  Obs_json.Obj
    [ ("schema", Obs_json.Str schema);
      ( "campaign",
        Obs_json.Str (if link_on p objective then "link" else "faults") );
      ("cell", Obs_json.Str (c.label cell));
      ("objective", Obs_json.Str (objective_label objective));
      ("score", Obs_json.Float e.e_score);
      ("timeline", Sweep.timeline_json e.e_timeline);
      ( "eval",
        Obs_json.Obj
          [ ("n", Obs_json.Int k.n);
            ("t", Obs_json.Int k.t);
            ("seeds", Obs_json.Int k.seeds);
            ("seed_base", Obs_json.Int k.seed_base);
            ("size", Obs_json.Int k.size);
            ("max_steps", Obs_json.Int c.max_steps) ] );
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

(* The fixture's cell of the campaign, over its seeds, under its
   timeline.  A timeline the campaign cannot run ([Invalid_argument],
   e.g. a rate [Sim.set_chaos] rejects) is an [Error]. *)
let replay_cell c ~cell tl ~score =
  match Sweep.find_cell c cell with
  | None -> Error (Printf.sprintf "no cell %S" cell)
  | Some cell -> (
    let env = Sweep.prepare c in
    try Ok (evaluate c env cell tl ~score)
    with Invalid_argument e -> Error e)

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
    let int k = get [ "eval"; k ] Obs_json.to_int in
    let name = get [ "campaign" ] Obs_json.to_str in
    ( known "campaign" Campaign_table.find name,
      get [ "cell" ] Obs_json.to_str,
      known "objective" objective_of_label
        (get [ "objective" ] Obs_json.to_str),
      tl,
      { Sweep.n = int "n"; t = int "t"; seed_base = int "seed_base";
        seeds = int "seeds"; size = int "size"; drop = None;
        max_steps = Some (int "max_steps") } )
  in
  match parse () with
  | exception Failure e -> Error e
  | row, cell, Decide_time, tl, k ->
    let (Campaign_table.Packed c) = row.campaign k in
    replay_cell c ~cell tl ~score:(decide_time c)
  | { name = ("faults" | "link") as name; _ }, cell, Buffer_peak, tl, k ->
    replay_cell (Campaign.campaign ~link:(name = "link") k) ~cell tl
      ~score:buffer_peak
  | { name; _ }, _, Buffer_peak, _, _ ->
    Error (Printf.sprintf "buffer-peak is a faults objective, not %s's" name)
