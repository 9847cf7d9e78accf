(* The campaign table: one row per campaign that [sintra run] knows, and
   the schema -> validator dispatch that [bench-check] and [sintra run]
   share.  See campaign_table.mli. *)

(* ---------- sintra-bench/1 --------------------------------------------- *)

let check_bench doc : (string, string) result =
  let str k = Option.bind (Obs_json.member k doc) Obs_json.to_str in
  let num k = Option.bind (Obs_json.member k doc) Obs_json.to_float in
  let counters =
    Option.bind (Obs_json.member "metrics" doc) (Obs_json.member "counters")
    |> fun o -> Option.bind o Obs_json.to_list
  in
  let counter_ok c =
    Option.bind (Obs_json.member "name" c) Obs_json.to_str <> None
    && Option.bind (Obs_json.member "value" c) Obs_json.to_int <> None
  in
  let crypto_ok =
    match Obs_json.member "crypto_ops" doc with
    | Some ops ->
      List.for_all
        (fun kind ->
          Option.bind (Obs_json.member (Obs_crypto.name kind) ops)
            Obs_json.to_int
          <> None)
        Obs_crypto.all_kinds
    | None -> false
  in
  (* Throughput documents (BENCH_TPUT.json) additionally carry a
     "tput" array of sweep rows; enforce the throughput-specific
     invariants: non-zero rounds, delivered within bounds, and
     monotone cumulative-delivery progress samples. *)
  let tput_ok =
    match Obs_json.member "tput" doc with
    | None -> Ok 0
    | Some rows ->
      (match Obs_json.to_list rows with
      | None -> Error "\"tput\" is not an array"
      | Some [] -> Error "\"tput\" array is empty"
      | Some rs ->
        let row_err i row =
          let int k = Option.bind (Obs_json.member k row) Obs_json.to_int in
          match (int "rounds", int "delivered", int "payloads") with
          | Some rounds, _, _ when rounds < 1 ->
            Some
              (Printf.sprintf "tput row %d: rounds = %d (must be >= 1)" i
                 rounds)
          | Some _, Some delivered, Some payloads
            when delivered < 0 || delivered > payloads ->
            Some
              (Printf.sprintf "tput row %d: delivered %d outside [0, %d]" i
                 delivered payloads)
          | Some _, Some _, Some _ ->
            (match
               Option.bind (Obs_json.member "progress" row) Obs_json.to_list
             with
            | None ->
              Some (Printf.sprintf "tput row %d: missing \"progress\"" i)
            | Some samples ->
              let rec monotone last = function
                | [] -> None
                | s :: rest ->
                  (match Option.bind (Obs_json.to_list s) (fun l ->
                       match l with
                       | [ steps; d ] ->
                         (match
                            (Obs_json.to_int steps, Obs_json.to_int d)
                          with
                         | Some _, Some d -> Some d
                         | _ -> None)
                       | _ -> None)
                   with
                  | Some d when d >= last -> monotone d rest
                  | Some d ->
                    Some
                      (Printf.sprintf
                         "tput row %d: delivered count drops %d -> %d" i
                         last d)
                  | None ->
                    Some
                      (Printf.sprintf
                         "tput row %d: ill-typed progress sample" i))
              in
              monotone 0 samples)
          | _ ->
            Some
              (Printf.sprintf
                 "tput row %d: missing rounds/delivered/payloads" i)
        in
        let rec scan i = function
          | [] -> Ok (List.length rs)
          | r :: rest ->
            (match row_err i r with
            | None -> scan (i + 1) rest
            | Some e -> Error e)
        in
        scan 0 rs)
  in
  (* BENCH_NUM batch-sweep rows (kernel "dleq_verify" with a "batch"
     label): per-share cost must be non-increasing in the batch size
     (25% slack for timer noise), and the headline batch-8 speedup
     recorded by the bench must clear 3x.  Quick runs (the make-check
     smoke) keep the schema checks but relax both thresholds: their
     0.02 s timing windows are too noisy to hold to the real gate. *)
  let is_quick =
    match Option.bind (Obs_json.member "quick" doc) Obs_json.to_bool with
    | Some b -> b
    | None -> false
  in
  let slack = if is_quick then 2.0 else 1.25 in
  let gate = if is_quick then 1.5 else 3.0 in
  let batch_ok =
    let rows =
      List.filter_map
        (fun c ->
          let labels = Obs_json.member "labels" c in
          let lab k =
            Option.bind labels (fun l ->
                Option.bind (Obs_json.member k l) Obs_json.to_str)
          in
          match
            ( lab "kernel", lab "batch",
              Option.bind (Obs_json.member "value" c) Obs_json.to_int )
          with
          | Some "dleq_verify", Some b, Some v ->
            Option.map (fun b -> (b, v)) (int_of_string_opt b)
          | _ -> None)
        (Option.value ~default:[] counters)
    in
    match List.sort compare rows with
    | [] -> Ok 0
    | sorted ->
      let rec mono = function
        | (b1, v1) :: ((b2, v2) :: _ as rest) ->
          if float_of_int v2 > float_of_int v1 *. slack then
            Error
              (Printf.sprintf
                 "dleq batch sweep: per-share cost increases %d ns \
                  (batch %d) -> %d ns (batch %d)"
                 v1 b1 v2 b2)
          else mono rest
        | _ -> Ok (List.length sorted)
      in
      (match mono sorted with
      | Error e -> Error e
      | Ok n_rows ->
        if not (List.mem_assoc 1 sorted && List.mem_assoc 8 sorted) then
          Ok n_rows
        else (
          match
            Option.bind (Obs_json.member "speedups" doc) (fun sp ->
                Option.bind
                  (Obs_json.member "dleq_batch_8_vs_1" sp)
                  Obs_json.to_float)
          with
          | None -> Error "dleq batch sweep: missing dleq_batch_8_vs_1"
          | Some s when s < gate ->
            Error
              (Printf.sprintf
                 "dleq batch sweep: batch-8 speedup %.2fx below the \
                  %.1fx gate" s gate)
          | Some _ -> Ok n_rows))
  in
  match (tput_ok, batch_ok) with
  | Error e, _ | _, Error e -> Error e
  | Ok tput_rows, Ok batch_rows ->
    (match (str "experiment", num "wall_time_s", num "virtual_time_total",
            counters) with
    | Some id, Some wall, Some vt, Some cs
      when wall >= 0.0 && List.for_all counter_ok cs && crypto_ok ->
      Ok
        (Printf.sprintf "%s: %d counters, virtual time %.0f%s%s" id
           (List.length cs) vt
           (if tput_rows = 0 then ""
            else Printf.sprintf ", %d tput rows" tput_rows)
           (if batch_rows = 0 then ""
            else Printf.sprintf ", %d dleq batch rows" batch_rows))
    | _ -> Error "missing or ill-typed required fields")

(* ---------- schema dispatch -------------------------------------------- *)

(* A campaign schema's check: its validator, then the members worth
   echoing on success. *)
let campaign_check validate shown doc =
  Result.map
    (fun () ->
      let show path =
        Result.to_option (Sweep.field doc path Obs_json.to_float)
        |> Option.map (Printf.sprintf "%s %g" (String.concat "." path))
      in
      Printf.sprintf "%s: %s"
        (Option.value ~default:"?"
           (Option.bind (Obs_json.member "experiment" doc) Obs_json.to_str))
        (String.concat ", " (List.filter_map show ([ "runs" ] :: shown))))
    (validate doc)

let schemas =
  [
    ("sintra-bench/1", check_bench);
    ( Campaign.schema,
      campaign_check Campaign.validate_json
        [ [ "violations"; "safety" ]; [ "violations"; "liveness" ];
          [ "link"; "retransmits_total" ] ] );
    ( Flight.schema,
      campaign_check Flight.validate_json
        [ [ "decided" ]; [ "trace"; "dropped_events" ] ] );
    ( Rejoin.schema,
      campaign_check Rejoin.validate_json
        [ [ "recovered" ]; [ "transferred" ]; [ "rejected_total" ];
          [ "memory"; "gc_on"; "log_peak" ]; [ "memory"; "gc_off"; "log_peak" ] ]
    );
    ( Refresh.schema,
      campaign_check Refresh.validate_json
        [ [ "completed" ]; [ "excluded_total" ] ] );
    ( Svc.schema,
      campaign_check Svc.validate_json
        [ [ "requests"; "completed" ]; [ "requests"; "target" ];
          [ "fastpath"; "hits" ]; [ "memory"; "plain_log_peak" ];
          [ "memory"; "bound" ] ] );
  ]

let check_doc doc =
  match Option.bind (Obs_json.member "schema" doc) Obs_json.to_str with
  | None -> Error "missing \"schema\" member"
  | Some s -> (
    match List.assoc_opt s schemas with
    | Some check -> check doc
    | None -> Error (Printf.sprintf "unknown schema %S" s))

let check_file path =
  match
    In_channel.with_open_bin path In_channel.input_all |> Obs_json.of_string
  with
  | Error e -> Error (Printf.sprintf "parse error: %s" e)
  | Ok doc -> check_doc doc

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
  schema : string;
  default_id : string;
  full : preset;
  quick : preset;
  run :
    knobs -> id:string -> progress:(int * int -> unit) -> string * bool;
}

(* Time a sweep, print its summary, write its artifact. *)
let report ?per_s ~id ~run ~pp ~to_json ~path ~ok () =
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
  (Sweep.write (path id) (to_json ~id ~wall rep), ok rep)

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
    ~pp:Campaign.pp_summary ~to_json:Campaign.to_json ~path:Campaign.out_path
    ~ok:Campaign.ok ()

let run_flight k ~id ~progress =
  let cfg = faults_config ~link:false k in
  let env = Campaign.prepare cfg in
  let flight = Flight.create ~obs:env.Sweep.obs () in
  let rep = Campaign.run_prepared ~progress ~flight env cfg in
  let summary =
    Flight.summarize ~id ~config:(Campaign.config_json cfg) (Flight.runs flight)
  in
  Flight.pp_summary Format.std_formatter summary;
  Format.print_flush ();
  (Flight.write ~id summary, Campaign.ok rep)

let run_recov k ~id ~progress =
  report ~id
    ~run:(fun () ->
      Rejoin.run ~progress
        (Rejoin.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~payloads:k.size ?drop:k.drop ()))
    ~pp:Rejoin.pp_summary ~to_json:Rejoin.to_json ~path:Rejoin.out_path
    ~ok:Rejoin.ok ()

let run_epoch k ~id ~progress =
  report ~id
    ~run:(fun () ->
      Refresh.run ~progress
        (Refresh.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~payloads:k.size ?drop:k.drop ()))
    ~pp:Refresh.pp_summary ~to_json:Refresh.to_json ~path:Refresh.out_path
    ~ok:Refresh.ok ()

(* The full service sweep is >= 100k requests, hence the step bound. *)
let run_svc k ~id ~progress =
  report ~per_s:Svc.completed_total ~id
    ~run:(fun () ->
      Svc.run ~progress
        (Svc.default_config ~seeds:k.seeds ~seed_base:k.seed_base ~n:k.n
           ~t:k.t ~requests:k.size ?drop:k.drop ~max_steps:200_000_000 ()))
    ~pp:Svc.pp_summary ~to_json:Svc.to_json ~path:Svc.out_path ~ok:Svc.ok ()

let campaigns =
  [
    { name = "faults"; prefix = "FAULTS"; schema = Campaign.schema;
      default_id = "CAMPAIGN"; full = { seeds = 50; size = 2 };
      quick = { seeds = 5; size = 2 }; run = run_faults ~link:false };
    { name = "link"; prefix = "FAULTS_LINK"; schema = Campaign.schema;
      default_id = "CAMPAIGN"; full = { seeds = 50; size = 2 };
      quick = { seeds = 10; size = 2 }; run = run_faults ~link:true };
    { name = "flight"; prefix = "FLIGHT"; schema = Flight.schema;
      default_id = "CAMPAIGN"; full = { seeds = 10; size = 2 };
      quick = { seeds = 3; size = 2 }; run = run_flight };
    { name = "recov"; prefix = "RECOV"; schema = Rejoin.schema;
      default_id = "RECOVERY"; full = { seeds = 50; size = 24 };
      quick = { seeds = 3; size = 12 }; run = run_recov };
    { name = "epoch"; prefix = "EPOCH"; schema = Refresh.schema;
      default_id = "EPOCH"; full = { seeds = 50; size = 24 };
      quick = { seeds = 2; size = 12 }; run = run_epoch };
    { name = "svc"; prefix = "BENCH_SVC"; schema = Svc.schema;
      default_id = "svc"; full = { seeds = 1; size = 13_000 };
      quick = { seeds = 1; size = 48 }; run = run_svc };
  ]

let is_artifact file =
  Filename.check_suffix file ".json"
  && List.exists
       (fun p -> String.starts_with ~prefix:(p ^ "_") file)
       ("BENCH" :: List.map (fun c -> c.prefix) campaigns)
