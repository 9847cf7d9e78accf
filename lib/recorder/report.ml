(* The report envelope: shared header, gate rows with their pass
   limits, the one artifact writer and the envelope check.  See
   report.mli. *)

type kind = Bench | Faults | Recov | Epoch | Svc

let kinds = [ Bench; Faults; Recov; Epoch; Svc ]

let kind_label = function
  | Bench -> "bench"
  | Faults -> "faults"
  | Recov -> "recov"
  | Epoch -> "epoch"
  | Svc -> "svc"

let kind_of_label s = List.find_opt (fun k -> kind_label k = s) kinds

let schema = "sintra-report/1"

(* ---------- gate rows -------------------------------------------------- *)

type better = Lower | Higher | Info

let better_label = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Info -> "info"

let better_of_label s =
  List.find_opt (fun b -> better_label b = s) [ Lower; Higher; Info ]

type gate = {
  metric : string;
  better : better;
  strict : bool;
  value : float;
  limit : float option;
}

let strict better metric value =
  { metric; better; strict = true; value; limit = None }

let threshold ?limit better metric value =
  { metric; better; strict = false; value; limit }

let info metric value = threshold Info metric value

let must better metric ~limit value =
  { metric; better; strict = true; value; limit = Some limit }

let wall_metric = "wall time (s)"

let within g =
  match (g.limit, g.better) with
  | None, _ | Some _, Info -> true
  | Some l, Lower -> g.value <= l
  | Some l, Higher -> g.value >= l

let past_limits gate = List.filter (fun g -> not (within g)) gate

let acceptance kind ~experiment =
  match kind with
  | Bench -> (
    match experiment with
    | "F1" ->
      [ "abc benign live and safe seeds"; "abc attack live and safe seeds";
        "pbft attack live seeds"; "pbft safety violations" ]
    | "F2" -> [ "equivocated payload delivered" ]
    | "E1" -> [ "maximal sets live and safe"; "beyond-structure run live" ]
    | "E2" ->
      [ "site+OS patterns live and safe"; "7-server pattern corruptible at t=5";
        "t=5 threshold run live" ]
    | "G1" -> [ "structures live and safe" ]
    | "R1" -> [ "abba oracle violations"; "n=4 mean rounds" ]
    | "R2" -> [ "rows delivered"; "total-order violations" ]
    | "M1" -> [ "n=4 instances completed" ]
    | "O1" -> [ "abc live under leader delay"; "pbft live under leader delay" ]
    | "O2" -> [ "fast path below full abc messages"; "sequencer crash recovered" ]
    | "S1" -> [ "certificate issued" ]
    | "S2" -> [ "confidential leak"; "plain leak"; "registered" ]
    | "TPUT" -> [ "tput invariant breaks" ]
    | "NUM" -> [ "dleq batch-8 speedup"; "dleq per-share cost rise" ]
    | _ -> [])
  | Faults ->
    [ "safety violations"; "gating liveness violations";
      "undecided gating runs" ]
  | Recov ->
    [ "safety violations"; "recovered runs"; "crash-rejoins without transfer";
      "forged sweep without a rejection" ]
  | Epoch ->
    [ "safety violations"; "completed runs"; "reply certificates";
      "runs with a changed public key"; "runs with live old shares";
      "runs with an unserving replacement";
      "Byzantine sweep without an exclusion" ]
  | Svc ->
    [ "safety violations"; "certificate failures"; "missed requests";
      "GC'd log peak"; "fast path never hit" ]

let stated = function
  | Bench ->
    "virtual time total"
    :: List.map (fun k -> "crypto " ^ Obs_crypto.name k) Obs_crypto.all_kinds
  | Faults | Recov | Epoch | Svc -> []

let gate_json g =
  Obs_json.Obj
    ([
       ("metric", Obs_json.Str g.metric);
       ("better", Obs_json.Str (better_label g.better));
       ("strict", Obs_json.Bool g.strict);
       ("value", Obs_json.Float g.value);
     ]
    @ Option.fold ~none:[] ~some:(fun l -> [ ("limit", Obs_json.Float l) ])
        g.limit)

(* ---------- writing ---------------------------------------------------- *)

let make kind ~experiment ~wall ~obs ~gate ?per_run ?config ?anomalies () =
  let opt name f = Option.fold ~none:[] ~some:(fun v -> [ (name, f v) ]) in
  Obs_json.Obj
    ([
       ("schema", Obs_json.Str schema);
       ("kind", Obs_json.Str (kind_label kind));
       ("experiment", Obs_json.Str experiment);
       ("wall_time_s", Obs_json.Float wall);
       ("metrics", Obs_registry.snapshot_to_json (Obs.snapshot obs));
       ( "gate",
         Obs_json.Arr (List.map gate_json (gate @ [ info wall_metric wall ])) );
     ]
    @ opt "runs" (fun rs -> Obs_json.Int (List.length rs)) per_run
    @ opt "per_run" (fun rs -> Obs_json.Arr rs) per_run
    @ opt "config" Fun.id config
    @ opt "anomalies"
        (fun rs -> Obs_json.Obj [ ("records", Obs_json.Arr rs) ])
        anomalies)

let write path doc =
  let oc = open_out path in
  output_string oc (Obs_json.to_canonical_string doc);
  output_char oc '\n';
  close_out oc;
  path

(* ---------- reading ---------------------------------------------------- *)

type 'a check = ('a, string) result

let ( let* ) = Result.bind

let field doc path conv =
  let v =
    List.fold_left
      (fun v name -> Option.bind v (Obs_json.member name))
      (Some doc) path
  in
  match Option.bind v conv with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "missing or ill-typed member %S" (String.concat "." path))

let ensure ok fmt = Printf.ksprintf (fun s -> if ok then Ok () else Error s) fmt

type header = {
  kind : kind;
  experiment : string;
  wall : float;
  runs : int option;
  gate : gate list;
}

let gate_row row =
  let* metric = field row [ "metric" ] Obs_json.to_str in
  let* label = field row [ "better" ] Obs_json.to_str in
  let* better =
    Option.to_result (better_of_label label)
      ~none:(Printf.sprintf "%S: unknown \"better\" %S" metric label)
  in
  let* strict = field row [ "strict" ] Obs_json.to_bool in
  let* value = field row [ "value" ] Obs_json.to_float in
  let* () = ensure (Float.is_finite value) "%S: non-finite value" metric in
  let* limit =
    match Obs_json.member "limit" row with
    | None -> Ok None
    | Some _ -> Result.map Option.some (field row [ "limit" ] Obs_json.to_float)
  in
  let* () =
    match limit with
    | None -> Ok ()
    | Some l ->
      let* () = ensure (Float.is_finite l) "%S: non-finite limit" metric in
      ensure (better <> Info) "%S: a limit on an info row" metric
  in
  Ok { metric; better; strict; value; limit }

(* Every row of the array at [path] through [check]; errors name the
   path and the row index. *)
let rows doc path check =
  let name = String.concat "." path in
  let* rs = field doc path Obs_json.to_list in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match check r with
      | Ok v -> go (i + 1) (v :: acc) rest
      | Error e -> Error (Printf.sprintf "%s row %d: %s" name i e))
  in
  go 0 [] rs

(* The fixed top-level members: the six every report has, then [runs]
   with [per_run], [config] and [anomalies]. *)
let members =
  [ "schema"; "kind"; "experiment"; "wall_time_s"; "metrics"; "gate"; "runs";
    "per_run"; "config"; "anomalies" ]

(* The one layout: only the fixed members; a campaign has all of them, a
   bench report no [anomalies] and [runs] only beside its [per_run]
   (TPUT); [config] is an object and [anomalies] holds its [records]
   alone. *)
let layout kind = function
  | Obs_json.Obj kvs ->
    let has k = List.mem_assoc k kvs in
    let first error = function [] -> Ok () | k :: _ -> Error (error k) in
    let* () =
      first
        (Printf.sprintf "unexpected top-level member %S")
        (List.filter (fun k -> not (List.mem k members)) (List.map fst kvs))
    in
    let* () =
      first (Printf.sprintf "missing %S")
        (List.filter (fun k -> not (has k))
           (if kind = Bench then []
            else [ "runs"; "per_run"; "config"; "anomalies" ]))
    in
    let* () =
      ensure (kind <> Bench || not (has "anomalies"))
        "a bench report with \"anomalies\""
    in
    let* () =
      ensure (has "runs" = has "per_run")
        "\"runs\" without \"per_run\" or the reverse"
    in
    let* () =
      match List.assoc_opt "config" kvs with
      | None | Some (Obs_json.Obj _) -> Ok ()
      | Some _ -> Error "\"config\" is not an object"
    in
    (match List.assoc_opt "anomalies" kvs with
    | None | Some (Obs_json.Obj [ ("records", Obs_json.Arr _) ]) -> Ok ()
    | Some _ -> Error "\"anomalies\" holds more or less than its \"records\"")
  | _ -> Error "not a JSON object"

let header doc =
  let* s = field doc [ "schema" ] Obs_json.to_str in
  let* () = ensure (s = schema) "unexpected schema %s" s in
  let* label = field doc [ "kind" ] Obs_json.to_str in
  let* kind =
    Option.to_result (kind_of_label label)
      ~none:(Printf.sprintf "unknown kind %S" label)
  in
  let* () = layout kind doc in
  let* experiment = field doc [ "experiment" ] Obs_json.to_str in
  let* wall = field doc [ "wall_time_s" ] Obs_json.to_float in
  let* runs =
    match Obs_json.member "runs" doc with
    | None -> Ok None
    | Some _ ->
      let* r = field doc [ "runs" ] Obs_json.to_int in
      let* () = ensure (r >= 0) "negative \"runs\"" in
      let* () = ensure (kind = Bench || r > 0) "no runs" in
      let* rs = field doc [ "per_run" ] Obs_json.to_list in
      let* () =
        ensure (List.length rs = r) "\"per_run\" has %d rows for %d runs"
          (List.length rs) r
      in
      Ok (Some r)
  in
  let* _ = field doc [ "metrics"; "counters" ] Obs_json.to_list in
  let* gate = rows doc [ "gate" ] gate_row in
  let* () =
    let rec unique = function
      | a :: (b :: _ as rest) ->
        if a = b then Error (Printf.sprintf "duplicate gate row %S" a)
        else unique rest
      | _ -> Ok ()
    in
    unique (List.sort compare (List.map (fun g -> g.metric) gate))
  in
  let* () =
    ensure
      (List.exists (fun g -> g.metric = wall_metric && g.value = wall) gate)
      "no %S gate row matching \"wall_time_s\"" wall_metric
  in
  let* () =
    let missing f = List.find_opt (fun m -> not (List.exists (f m) gate)) in
    match
      ( missing (fun m g -> g.metric = m) (stated kind),
        missing
          (fun m g -> g.metric = m && g.limit <> None)
          (acceptance kind ~experiment) )
    with
    | Some m, _ -> Error (Printf.sprintf "missing gate row %S" m)
    | None, Some m ->
      Error (Printf.sprintf "acceptance row %S missing or unlimited" m)
    | None, None -> Ok ()
  in
  Ok { kind; experiment; wall; runs; gate }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
    match Obs_json.of_string (String.trim s) with
    | Ok doc -> Ok doc
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e
