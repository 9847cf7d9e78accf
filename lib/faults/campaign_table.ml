(* The campaign table: one row per campaign that [sintra run] knows, and
   the one artifact check that [bench-check] and [sintra run] share.
   See campaign_table.mli. *)

let ( let* ) = Result.bind

(* ---------- the artifact check ----------------------------------------- *)

(* A row [Report.past_limits] returned, hence limited. *)
let limit_label (g : Report.gate) =
  Printf.sprintf "%s = %g (limit %s %g)" g.metric g.value
    (if g.better = Report.Higher then ">=" else "<=")
    (Option.get g.limit)

let check_doc doc =
  let* h = Report.header doc in
  match Report.past_limits h.gate with
  | [] ->
    Ok
      (Printf.sprintf "%s: %s%s, %d gate rows" h.experiment
         (Report.kind_label h.kind)
         (match h.runs with None -> "" | Some r -> Printf.sprintf ", %d runs" r)
         (List.length h.gate))
  | past ->
    Error
      ("past the limit: " ^ String.concat "; " (List.map limit_label past))

let check_file path = Result.bind (Report.read_file path) check_doc

(* ---------- the campaigns ---------------------------------------------- *)

type preset = { seeds : int; size : int }

type knobs = {
  n : int;
  t : int;
  seed_base : int;
  seeds : int;
  size : int;
  drop : float option;
}

type campaign = {
  name : string;
  prefix : string;
  kind : Report.kind;
  default_id : string;
  full : preset;
  quick : preset;
  run : knobs -> id:string -> progress:(int * int -> unit) -> string;
}

(* Time a sweep, print its summary, write its artifact. *)
let report ?per_s ~id ~run ~pp ~to_json ~path () =
  let t0 = Unix.gettimeofday () in
  let rep = run () in
  let wall = Unix.gettimeofday () -. t0 in
  pp Format.std_formatter rep;
  Format.printf "wall time %.1fs%s@." wall
    (match per_s with
    | None -> ""
    | Some f ->
      Printf.sprintf ", %.0f requests/s"
        (float_of_int (f rep) /. Float.max wall 1e-9));
  Report.write (path id) (to_json ~id ~wall rep)

(* The fault sweep: the three built-in chaos policies, or — for the link
   campaign — 30% drop alone with the link layer on, which makes the
   drop policy liveness-gating. *)
let faults_config ~link k =
  let policies =
    if link then
      [ Campaign.drop_policy ~rate:(Option.value k.drop ~default:0.3) () ]
    else
      [ Campaign.drop_policy ?rate:k.drop (); Campaign.dup_reorder_policy ();
        Campaign.partition_policy ~n:k.n () ]
  in
  Campaign.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n ~t:k.t
    ~payloads:k.size ~policies
    ?link:(if link then Some Link.default_policy else None)
    ()

(* Link reports are experiment "LINK_<id>", hence FAULTS_LINK_<id>.json. *)
let run_faults ~link k ~id ~progress =
  report
    ~id:(if link then "LINK_" ^ id else id)
    ~run:(fun () -> Campaign.run ~progress (faults_config ~link k))
    ~pp:Campaign.pp_summary ~to_json:Campaign.to_json ~path:Campaign.out_path ()

let run_flight k ~id ~progress =
  let cfg = faults_config ~link:false k in
  report ~id
    ~run:(fun () ->
      let env = Campaign.prepare cfg in
      let flight = Flight.create ~obs:env.Sweep.obs () in
      let rep = Campaign.run_prepared ~progress ~flight env cfg in
      ( rep,
        Flight.summarize ~id ~config:(Campaign.config_json cfg)
          (Flight.runs flight) ))
    ~pp:(fun fmt (_, s) -> Flight.pp_summary fmt s)
    ~to_json:(fun ~id:_ ~wall (rep, s) ->
      Flight.to_json ~wall ~obs:rep.Campaign.obs s)
    ~path:Flight.out_path ()

let run_recov k ~id ~progress =
  report ~id
    ~run:(fun () ->
      Rejoin.run ~progress
        (Rejoin.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~payloads:k.size ?drop:k.drop ()))
    ~pp:Rejoin.pp_summary ~to_json:Rejoin.to_json ~path:Rejoin.out_path ()

let run_epoch k ~id ~progress =
  report ~id
    ~run:(fun () ->
      Refresh.run ~progress
        (Refresh.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~payloads:k.size ?drop:k.drop ()))
    ~pp:Refresh.pp_summary ~to_json:Refresh.to_json ~path:Refresh.out_path ()

(* The full service sweep is >= 100k requests, hence the step bound. *)
let run_svc k ~id ~progress =
  report ~per_s:Svc.completed_total ~id
    ~run:(fun () ->
      Svc.run ~progress
        (Svc.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~requests:k.size ?drop:k.drop ~max_steps:200_000_000 ()))
    ~pp:Svc.pp_summary ~to_json:Svc.to_json ~path:Svc.out_path ()

let campaigns =
  [
    { name = "faults"; prefix = "FAULTS"; kind = Report.Faults;
      default_id = "CAMPAIGN"; full = { seeds = 50; size = 2 };
      quick = { seeds = 5; size = 2 }; run = run_faults ~link:false };
    { name = "link"; prefix = "FAULTS_LINK"; kind = Report.Faults;
      default_id = "CAMPAIGN"; full = { seeds = 50; size = 2 };
      quick = { seeds = 10; size = 2 }; run = run_faults ~link:true };
    { name = "flight"; prefix = "FLIGHT"; kind = Report.Flight;
      default_id = "CAMPAIGN"; full = { seeds = 10; size = 2 };
      quick = { seeds = 3; size = 2 }; run = run_flight };
    { name = "recov"; prefix = "RECOV"; kind = Report.Recov;
      default_id = "RECOVERY"; full = { seeds = 50; size = 24 };
      quick = { seeds = 3; size = 12 }; run = run_recov };
    { name = "epoch"; prefix = "EPOCH"; kind = Report.Epoch;
      default_id = "EPOCH"; full = { seeds = 50; size = 24 };
      quick = { seeds = 2; size = 12 }; run = run_epoch };
    { name = "svc"; prefix = "BENCH_SVC"; kind = Report.Svc;
      default_id = "svc"; full = { seeds = 1; size = 13_000 };
      quick = { seeds = 1; size = 48 }; run = run_svc };
  ]

let is_artifact file =
  Filename.check_suffix file ".json"
  && List.exists
       (fun p -> String.starts_with ~prefix:(p ^ "_") file)
       ("BENCH" :: List.map (fun c -> c.prefix) campaigns)
