(* The campaign table: one row per campaign that [sintra run] knows, the
   one path that runs a row and writes its artifact, and the one
   artifact check that [bench-check] and [sintra run] share.  See
   campaign_table.mli. *)

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

type packed = Packed : ('cell, 'run) Sweep.campaign -> packed

type campaign = {
  name : string;
  prefix : string;
  default_id : string;
  full : preset;
  quick : preset;
  campaign : Sweep.core -> packed;
}

let campaigns =
  [
    { name = "faults"; prefix = "FAULTS"; default_id = "CAMPAIGN";
      full = { seeds = 50; size = 2 }; quick = { seeds = 5; size = 2 };
      campaign = (fun k -> Packed (Campaign.campaign ~link:false k)) };
    { name = "link"; prefix = "FAULTS_LINK"; default_id = "CAMPAIGN";
      full = { seeds = 50; size = 2 }; quick = { seeds = 10; size = 2 };
      campaign = (fun k -> Packed (Campaign.campaign ~link:true k)) };
    { name = "recov"; prefix = "RECOV"; default_id = "RECOVERY";
      full = { seeds = 50; size = 24 }; quick = { seeds = 3; size = 12 };
      campaign = (fun k -> Packed (Rejoin.campaign k)) };
    { name = "epoch"; prefix = "EPOCH"; default_id = "EPOCH";
      full = { seeds = 50; size = 24 }; quick = { seeds = 2; size = 12 };
      campaign = (fun k -> Packed (Refresh.campaign k)) };
    { name = "svc"; prefix = "BENCH_SVC"; default_id = "svc";
      full = { seeds = 1; size = 13_000 }; quick = { seeds = 1; size = 48 };
      campaign = (fun k -> Packed (Svc.campaign k)) };
  ]

let find name = List.find_opt (fun c -> c.name = name) campaigns

let out_path c id =
  if id = c.name then c.prefix ^ ".json"
  else Printf.sprintf "%s_%s.json" c.prefix id

(* Sweep, print the summary, write the artifact and check it. *)
let run c k ~id ~progress =
  let (Packed s) = c.campaign k in
  let t0 = Unix.gettimeofday () in
  let rep = Sweep.sweep ~progress s in
  let wall = Unix.gettimeofday () -. t0 in
  Sweep.pp_summary Format.std_formatter rep;
  Format.printf "wall time %.1fs@." wall;
  let path = Report.write (out_path c id) (Sweep.to_json ~id ~wall rep) in
  (path, check_file path)

let is_artifact file =
  Filename.check_suffix file ".json"
  && List.exists
       (fun p -> String.starts_with ~prefix:(p ^ "_") file)
       ("BENCH" :: List.map (fun c -> c.prefix) campaigns)
