(* The campaign engine shared by the seed-sweep runners: configuration
   core and its echo, fault-timeline interpreter, the campaign value with its keyring
   environment, cell x seed loop, report and summary, stall conversion
   and the flight recorder's bracket around every run.  See sweep.mli. *)

type core = {
  seeds : int;
  seed_base : int;
  n : int;
  t : int;
  size : int;
  drop : float option;
  max_steps : int option;
}

type env = { keyring : Keyring.t; obs : Obs.t; flight : Flight.recorder }

(* ---------- fault timelines ------------------------------------------- *)

type trigger = Start | Progress of float
type target = All | All_but_victim

type action =
  | Crash
  | Revive
  | Isolate
  | Heal
  | Chaos of Sim.chaos
  | Refresh
  | Reshare of target

type step = { at : trigger; act : action }
type timeline = step list

let lossy drop =
  { Sim.benign_chaos with Sim.default_link = { Sim.no_fault with Sim.drop } }

(* The one JSON encoding: a step is {"at": "start" | fraction, "do":
   action}, plus "spec" for chaos; an open-ended partition has "until":
   null. *)

let names =
  [ ("crash", Crash); ("revive", Revive); ("isolate", Isolate);
    ("heal", Heal); ("refresh", Refresh); ("reshare", Reshare All);
    ("reshare-all-but-victim", Reshare All_but_victim) ]

let chaos_json (c : Sim.chaos) =
  let open Obs_json in
  let fault (l : Sim.link_fault) =
    Obj
      [ ("drop", Float l.drop); ("duplicate", Float l.duplicate);
        ("reorder", Float l.reorder); ("delay", Float l.delay) ]
  in
  let cell c = Arr (List.map (fun p -> Int p) (Pset.to_list c)) in
  let window (pa : Sim.partition) =
    Obj
      [ ("from", Float pa.from_t);
        ("until", if pa.until_t = infinity then Null else Float pa.until_t);
        ("cells", Arr (List.map cell pa.cells)) ]
  in
  Obj
    [ ("default_link", fault c.default_link);
      ( "links",
        Arr
          (List.map (fun ((s, d), l) -> Arr [ Int s; Int d; fault l ]) c.links)
      );
      ("partitions", Arr (List.map window c.partitions)) ]

let step_json s =
  let open Obs_json in
  let at = match s.at with Start -> Str "start" | Progress f -> Float f in
  match s.act with
  | Chaos c -> Obj [ ("at", at); ("do", Str "chaos"); ("spec", chaos_json c) ]
  | a ->
    let name = fst (List.find (fun (_, a') -> a' = a) names) in
    Obj [ ("at", at); ("do", Str name) ]

let timeline_json tl = Obs_json.Arr (List.map step_json tl)

(* The decoders fail with the first ill-formed member's name. *)
let timeline_of_json v =
  let fail fmt = Printf.ksprintf failwith fmt in
  let get conv what v =
    match conv v with Some x -> x | None -> fail "missing or ill-typed %s" what
  in
  let mem k v = get (Obs_json.member k) (Printf.sprintf "%S" k) v in
  let num k v = get Obs_json.to_float k (mem k v) in
  let arr what v = get Obs_json.to_list what v in
  let party = get Obs_json.to_int "party" in
  let fault v =
    { Sim.drop = num "drop" v; duplicate = num "duplicate" v;
      reorder = num "reorder" v; delay = num "delay" v }
  in
  let link l =
    match arr "link" l with
    | [ s; d; f ] -> ((party s, party d), fault f)
    | _ -> fail "a link override is [src, dst, fault]"
  in
  let window pa =
    { Sim.from_t = num "from" pa;
      until_t =
        (match mem "until" pa with
        | Obs_json.Null -> infinity
        | u -> get Obs_json.to_float "until" u);
      cells =
        List.map
          (fun c -> Pset.of_list (List.map party (arr "cell" c)))
          (arr "cells" (mem "cells" pa)) }
  in
  let chaos v =
    { Sim.default_link = fault (mem "default_link" v);
      links = List.map link (arr "links" (mem "links" v));
      partitions = List.map window (arr "partitions" (mem "partitions" v)) }
  in
  let step v =
    let at =
      match mem "at" v with
      | Obs_json.Str "start" -> Start
      | a -> (
        match Obs_json.to_float a with
        | Some f when f > 0.0 && f < 1.0 -> Progress f
        | _ -> fail "\"at\" must be \"start\" or a fraction in (0, 1)")
    in
    match get Obs_json.to_str "\"do\"" (mem "do" v) with
    | "chaos" -> { at; act = Chaos (chaos (mem "spec" v)) }
    | name -> (
      match List.assoc_opt name names with
      | Some act -> { at; act }
      | None -> fail "unknown action %S" name)
  in
  try Ok (List.map step (arr "timeline" v)) with Failure e -> Error e

let pp_timeline fmt tl =
  Format.pp_print_string fmt (Obs_json.to_string (timeline_json tl))

(* ---------- the interpreter -------------------------------------------- *)

type 'm faults = {
  sim : 'm Sim.t;
  victim : int;
  mutable base : Sim.chaos option;  (* the spec [Heal] restores *)
  mutable pending : step list;  (* not yet fired, in order *)
  mutable last : step option;  (* the most recently fired step *)
  mutable target : int;  (* epoch actions fired so far *)
  mutable epoch : int -> int;
}

(* The interpreter's own effect of an action: everything that touches the
   simulator.  Open-ended isolation is safe since the scheduler treats an
   all-blocked step as a clock advance to the next timer, so the
   survivors' traffic and every retransmit timer keep running behind the
   cut until [Heal]. *)
let apply f = function
  | Chaos c ->
    f.base <- Some c;
    Sim.set_chaos f.sim (Some c)
  | Crash -> Sim.crash f.sim f.victim
  | Isolate ->
    let base = Option.value f.base ~default:Sim.benign_chaos in
    let cut =
      { Sim.from_t = Sim.clock f.sim; until_t = infinity;
        cells = [ Pset.singleton f.victim ] }
    in
    Sim.set_chaos f.sim
      (Some { base with Sim.partitions = base.Sim.partitions @ [ cut ] })
  | Heal -> Sim.set_chaos f.sim f.base
  | Refresh | Reshare _ -> f.target <- f.target + 1
  | Revive -> ()

(* Fire steps in order while [ok] holds for the next one. *)
let rec fire_while f act ok =
  match f.pending with
  | s :: rest when ok s ->
    apply f s.act;
    act s.act;
    f.last <- Some s;
    f.pending <- rest;
    fire_while f act ok
  | _ -> ()

let last_settled f =
  match f.last with
  | Some { act = Refresh | Reshare _; _ } ->
    List.for_all
      (fun p -> Sim.is_crashed f.sim p || f.epoch p >= f.target)
      (List.init (Sim.n f.sim) Fun.id)
  | Some { act = Revive; _ } -> f.epoch f.victim >= f.target
  | _ -> true

let settled f = f.pending = [] && last_settled f

let start env ?(victim = -1) sim tl =
  Flight.bind_clock env.flight (fun () -> Sim.clock sim);
  let f =
    { sim; victim; base = None; pending = tl; last = None; target = 0;
      epoch = (fun _ -> 0) }
  in
  fire_while f ignore (function
    | { at = Start; act = Chaos _ } -> true
    | _ -> false);
  f

let drive f ~monitor ~period ~total ~progress ?epoch ?(nudge = ignore) ?tick
    act =
  Option.iter (fun e -> f.epoch <- e) epoch;
  let holds = function
    | Start -> true
    | Progress x ->
      let th = int_of_float (x *. float_of_int total) in
      progress () >= max 1 (min (total - 1) th)
  in
  (* One trigger group: the next step, then every following step with
     the same trigger whose predecessor settles at once. *)
  let fire_group () =
    match f.pending with
    | s :: _ when holds s.at && last_settled f ->
      fire_while f act (fun s' -> s'.at = s.at && last_settled f);
      true
    | _ -> false
  in
  let rec poll () =
    let fired = fire_group () in
    (match f.last with
    | Some s when (not fired) && not (settled f) -> nudge s.act
    | _ -> ());
    let more = match tick with Some t -> t () | None -> false in
    if more || not (settled f) then
      Sim.set_timer f.sim monitor ~delay:period poll
  in
  ignore (fire_group ());
  if Option.is_some tick || not (settled f) then
    Sim.set_timer f.sim monitor ~delay:period poll

(* ---------- campaigns -------------------------------------------------- *)

type totals = { runs : int; safety : int; liveness : int; steps : int }

type ('cell, 'run) campaign = {
  kind : Report.kind;
  core : core;
  max_steps : int;
  key_offset : int;
  cells : 'cell list;
  label : 'cell -> string;
  timeline : 'cell -> timeline;
  run_one : env -> 'cell -> seed:int -> timeline -> 'run;
  violations : 'run -> Oracle.violation list;
  steps : 'run -> int;
  row : 'run -> (string * Obs_json.t) list;
  close : env -> totals -> 'run list -> Report.gate list;
  constants : (string * Obs_json.t) list;
}

(* Toy key sizes: the campaigns test the protocols, not the keys. *)
let rsa_bits = 192
let group_bits = 128

let prepare c =
  let k = c.core in
  let obs = Obs.create () in
  {
    keyring =
      Keyring.deal ~group_bits ~rsa_bits ~seed:(k.seed_base + c.key_offset)
        (Adversary_structure.threshold ~n:k.n ~t:k.t);
    obs;
    flight = Flight.create ~obs ();
  }

(* One run in the recorder, closed under the cell's label with the
   stall, then every safety violation, as anomalies.  A stall leaves the
   clock where the simulator ran out of steps. *)
let run_cell c env cell ~seed =
  Flight.run_begin env.flight;
  let r = c.run_one env cell ~seed (c.timeline cell) in
  let violations = c.violations r in
  let note kind (v : Oracle.violation) =
    Flight.note_anomaly env.flight kind ~detail:(Oracle.violation_to_string v)
  in
  List.iter (note Flight.Stall) (List.filter Oracle.is_stall violations);
  List.iter (note Flight.Safety_trip)
    (List.filter (fun v -> v.Oracle.severity = Oracle.Safety) violations);
  Flight.run_end env.flight ~key:{ Flight.cell = c.label cell; seed };
  r

let find_cell c label = List.find_opt (fun cell -> c.label cell = label) c.cells

type ('cell, 'run) report = {
  campaign : ('cell, 'run) campaign;
  env : env;
  results : ('cell * int * 'run) list;
  totals : totals;
  gate : Report.gate list;
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let totals c runs =
  let count f = sum (fun r -> f (c.violations r)) runs in
  { runs = List.length runs; safety = count Oracle.count_safety;
    liveness = count Oracle.count_liveness; steps = sum c.steps runs }

let sweep ?(progress = fun _ -> ()) c =
  let env = prepare c in
  let total = List.length c.cells * c.core.seeds in
  let results = ref [] and k = ref 0 in
  List.iter
    (fun cell ->
      for i = 0 to c.core.seeds - 1 do
        let r = run_cell c env cell ~seed:(c.core.seed_base + i) in
        results := (cell, c.core.seed_base + i, r) :: !results;
        incr k;
        progress (!k, total)
      done)
    c.cells;
  let results = List.rev !results in
  let runs = List.map (fun (_, _, r) -> r) results in
  let totals = totals c runs in
  { campaign = c; env; results; totals;
    gate = c.close env totals runs @ Flight.summarize env.flight }

let runs rep = List.map (fun (_, _, r) -> r) rep.results

(* The configuration echo: the core with the bound in force, every cell
   with its default timeline, then the runner's constants. *)
let config_json c =
  let open Obs_json in
  let k = c.core in
  Obj
    ([ ("seeds", Int k.seeds); ("seed_base", Int k.seed_base); ("n", Int k.n);
       ("t", Int k.t); ("size", Int k.size);
       ("drop", match k.drop with None -> Null | Some d -> Float d);
       ("max_steps", Int c.max_steps);
       ( "cells",
         Arr
           (List.map
              (fun cell ->
                Obj
                  [ ("label", Str (c.label cell));
                    ("timeline", timeline_json (c.timeline cell)) ])
              c.cells) ) ]
    @ c.constants)

let violation_json (v : Oracle.violation) =
  let open Obs_json in
  Obj
    [ ("oracle", Str v.oracle);
      ("severity", Str (Oracle.severity_label v.severity));
      ("party", match v.party with None -> Null | Some p -> Int p);
      ("detail", Str v.detail) ]

(* A run's row: the head every campaign shares, then the runner's own
   fields. *)
let row_json c (cell, seed, r) =
  let vs = c.violations r in
  Obs_json.Obj
    ([ ("cell", Obs_json.Str (c.label cell)); ("seed", Obs_json.Int seed);
       ("safety", Obs_json.Int (Oracle.count_safety vs));
       ("liveness", Obs_json.Int (Oracle.count_liveness vs));
       ("steps", Obs_json.Int (c.steps r));
       ("violations", Obs_json.Arr (List.map violation_json vs)) ]
    @ c.row r)

let to_json ~id ~wall rep =
  let c = rep.campaign in
  Report.make c.kind ~experiment:id ~wall ~obs:rep.env.obs ~gate:rep.gate
    ~per_run:(List.map (row_json c) rep.results)
    ~config:(config_json c)
    ~anomalies:(Flight.records rep.env.flight)
    ()

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let pp_summary fmt rep =
  let c = rep.campaign in
  let line label t =
    Format.fprintf fmt "%-28s %4d runs  safety %d  liveness %3d  steps %9d%s@."
      label t.runs t.safety t.liveness t.steps
      (if t.safety > 0 then "  << SAFETY VIOLATION" else "")
  in
  List.iter
    (fun cell ->
      line (c.label cell)
        (totals c
           (List.filter_map
              (fun (cell', _, r) ->
                if c.label cell' = c.label cell then Some r else None)
              rep.results)))
    c.cells;
  line "total" rep.totals;
  List.iter
    (fun (g : Report.gate) ->
      Format.fprintf fmt "  %-40s %12g%s@." g.metric g.value
        (match g.limit with
        | None -> ""
        | Some l ->
          Printf.sprintf "  (limit %s %g)"
            (if g.better = Report.Higher then ">=" else "<=")
            l))
    rep.gate

(* ---------- running one simulation ------------------------------------- *)

(* Payloads submitted every [submit_gap] of virtual time, round-robin
   from every party but the victim, so the timeline lands mid-stream: a
   crashed submitter would lose its submission timers and silently
   shrink the expected total. *)
let submit_gap = 6.0

let stream sim ~victim payloads submit =
  let submitters =
    List.filter (fun p -> p <> victim) (List.init (Sim.n sim) Fun.id)
  in
  List.iteri
    (fun k payload ->
      let s = List.nth submitters (k mod List.length submitters) in
      Sim.set_timer sim s ~delay:(float_of_int k *. submit_gap) (fun () ->
          submit s payload))
    payloads

let run_sim ?retry sim ~max_steps ~until =
  let once () =
    try
      Sim.run ~max_steps ~until sim;
      []
    with Sim.Out_of_steps { at_clock; pending; timers; detail } ->
      [ Oracle.out_of_steps ~detail ~at_clock ~pending ~timers () ]
  in
  let rec go k = function
    | [] when k < 3 && Option.is_some retry && not (until ()) ->
      Option.get retry ();
      go (k + 1) (once ())
    | stall -> stall
  in
  go 0 (once ())

let unless ok ?party severity oracle detail =
  if ok then [] else [ { Oracle.oracle; severity; party; detail } ]
