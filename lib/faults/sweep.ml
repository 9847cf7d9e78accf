(* The campaign engine shared by the seed-sweep runners: configuration
   core, keyring environment, cell x seed loop, progress-driven outage
   trigger, stall conversion, flight glue, artifact writer and validator
   combinators.  See sweep.mli. *)

type core = {
  seeds : int;
  seed_base : int;
  n : int;
  t : int;
  rsa_bits : int;
  group_bits : int;
  max_steps : int;
}

let core ?(seed_base = 1) ?(n = 4) ?(t = 1) ?(rsa_bits = 192)
    ?(group_bits = 128) ~seeds ~max_steps () =
  { seeds; seed_base; n; t; rsa_bits; group_bits; max_steps }

let core_fields c =
  [
    ("seeds", Obs_json.Int c.seeds);
    ("seed_base", Obs_json.Int c.seed_base);
    ("n", Obs_json.Int c.n);
    ("t", Obs_json.Int c.t);
    ("max_steps", Obs_json.Int c.max_steps);
  ]

(* ---------- environment ----------------------------------------------- *)

type env = { keyring : Keyring.t; obs : Obs.t }

let prepare ~key_offset c =
  let structure = Adversary_structure.threshold ~n:c.n ~t:c.t in
  {
    keyring =
      Keyring.deal ~group_bits:c.group_bits ~rsa_bits:c.rsa_bits
        ~seed:(c.seed_base + key_offset) structure;
    obs = Obs.create ();
  }

(* ---------- the sweep -------------------------------------------------- *)

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let sweep ?(progress = fun _ -> ()) c cells run =
  let total = List.length cells * c.seeds in
  let results = ref [] and k = ref 0 in
  List.iter
    (fun cell ->
      for i = 0 to c.seeds - 1 do
        results := run cell ~seed:(c.seed_base + i) :: !results;
        incr k;
        progress (!k, total)
      done)
    cells;
  List.rev !results

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let group key rows =
  let cells = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt cells k with
      | Some rs -> rs := r :: !rs
      | None ->
        Hashtbl.add cells k (ref [ r ]);
        order := k :: !order)
    rows;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find cells k))) !order

(* ---------- progress-driven faults ------------------------------------- *)

let every sim ~party ~period tick =
  let rec poll () = if tick () then Sim.set_timer sim party ~delay:period poll in
  Sim.set_timer sim party ~delay:period poll

let thresholds ~down_frac ~up_frac total =
  ( max 1 (int_of_float (down_frac *. float_of_int total)),
    min (total - 1) (int_of_float (up_frac *. float_of_int total)) )

let outage ~down_frac ~up_frac ~total ~progress ~down ~up =
  let down_th, up_th = thresholds ~down_frac ~up_frac total in
  let phase = ref `Wait_down in
  fun () ->
    (match !phase with
    | `Wait_down when progress () >= down_th ->
      down ();
      phase := `Wait_up
    | `Wait_up when progress () >= up_th ->
      up ();
      phase := `Done
    | _ -> ());
    !phase <> `Done

(* ---------- running one simulation ------------------------------------- *)

(* The recorder depends only on sintra_obs: runners feed it plain
   scalars, so the dependency arrow runs faults -> recorder -> obs. *)
let flight_begin flight sim =
  Option.iter
    (fun fl -> Flight.run_begin fl ~now:(fun () -> Sim.clock sim))
    flight

let run_sim ?flight sim ~max_steps ~until =
  try
    Sim.run ~max_steps ~until sim;
    []
  with Sim.Out_of_steps { at_clock; pending; timers; detail } ->
    Option.iter
      (fun fl ->
        Flight.note_anomaly fl Flight.Stall ~at:at_clock
          ~detail:(if detail = "" then "out of steps" else detail))
      flight;
    [ Oracle.out_of_steps ~detail ~at_clock ~pending ~timers () ]

let flight_end flight ~key ~violations ~decided ~gating ~decide_clock ~steps
    ~buffer_peak =
  Option.iter
    (fun fl ->
      List.iter
        (fun (v : Oracle.violation) ->
          if v.Oracle.severity = Oracle.Safety then
            Flight.note_anomaly fl Flight.Safety_trip
              ~detail:(Oracle.violation_to_string v))
        violations;
      Flight.run_end fl ~key ~decided ~gating ~decide_clock ~steps
        ~safety:(Oracle.count_safety violations)
        ~liveness:(Oracle.count_liveness violations)
        ~buffer_peak)
    flight

let unless ok ?party severity oracle detail =
  if ok then [] else [ { Oracle.oracle; severity; party; detail } ]

(* ---------- artifacts -------------------------------------------------- *)

let envelope ~id ~schema ~wall ~config ~runs ~obs fields =
  Obs_json.Obj
    ([
       ("experiment", Obs_json.Str id);
       ("schema", Obs_json.Str schema);
       ("wall_time_s", Obs_json.Float wall);
       ("config", config);
       ("runs", Obs_json.Int runs);
       ("metrics", Obs_registry.snapshot_to_json (Obs.snapshot obs));
     ]
    @ fields)

let write path doc =
  let oc = open_out path in
  output_string oc (Obs_json.to_canonical_string doc);
  output_char oc '\n';
  close_out oc;
  path

(* ---------- validator combinators -------------------------------------- *)

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

let header ~schema doc =
  let* s = field doc [ "schema" ] Obs_json.to_str in
  let* () = ensure (s = schema) "unexpected schema %s" s in
  let* _ = field doc [ "experiment" ] Obs_json.to_str in
  let* _ = field doc [ "wall_time_s" ] Obs_json.to_float in
  let* runs = field doc [ "runs" ] Obs_json.to_int in
  let* () = ensure (runs >= 0) "negative \"runs\"" in
  Ok runs

let rows ?runs doc path check =
  let name = String.concat "." path in
  let* rs = field doc path Obs_json.to_list in
  let* () =
    match runs with
    | Some runs ->
      ensure (List.length rs = runs) "%S has %d rows for %d runs" name
        (List.length rs) runs
    | None -> Ok ()
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match check r with
      | Ok v -> go (i + 1) (v :: acc) rest
      | Error e -> Error (Printf.sprintf "%s row %d: %s" name i e))
  in
  go 0 [] rs
