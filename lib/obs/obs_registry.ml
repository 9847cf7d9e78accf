(* Metrics registry: named counters, gauges and log-scale histograms,
   each carrying a label set (protocol layer, instance tag, party, ...).

   Handles returned by [counter] / [gauge] / [histogram] are plain
   mutable cells, so the hot path pays one record-field update per
   event; the hashtable lookup happens once, at registration.  The
   snapshot/diff pair turns the registry into an interval meter: take a
   snapshot before an experiment, one after, and [diff] yields exactly
   the traffic of that interval — the algebra the bench harness uses to
   attribute work to each run. *)

type labels = (string * string) list

type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Obs_histogram.t

type key = { name : string; labels : labels }

type t = {
  tbl : (key, metric) Hashtbl.t;
  mutable keys : key list;  (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 32; keys = [] }

(* Sorted by (key, value) before deduplicating by key, so when a caller
   passes the same key twice the survivor is deterministic (smallest
   value) instead of depending on the sort's internals. *)
let canon_labels labels =
  let rec dedup = function
    | ((k1, _) as a) :: (k2, _) :: rest when k1 = k2 -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.sort compare labels)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ~name ~labels fresh project =
  let key = { name; labels = canon_labels labels } in
  match Hashtbl.find_opt t.tbl key with
  | Some m ->
    (match project m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Obs_registry: %s already registered as a %s" name
           (kind_name m)))
  | None ->
    let m = fresh () in
    Hashtbl.add t.tbl key m;
    t.keys <- key :: t.keys;
    (match project m with Some v -> v | None -> assert false)

let counter t ?(labels = []) name =
  register t ~name ~labels
    (fun () -> Counter { c = 0 })
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge t ?(labels = []) name =
  register t ~name ~labels
    (fun () -> Gauge { g = 0.0 })
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let histogram t ?(labels = []) name =
  register t ~name ~labels
    (fun () -> Histogram (Obs_histogram.create ()))
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let find_counter t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl { name; labels = canon_labels labels } with
  | Some (Counter c) -> Some c.c
  | Some (Gauge _ | Histogram _) | None -> None

let incr ?(by = 1) c = c.c <- c.c + by
let value c = c.c
let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v

let observe t ?labels name v =
  Obs_histogram.observe (histogram t ?labels name) v

(* ---------- snapshots ----------------------------------------------- *)

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of Obs_histogram.t  (* a private copy *)

type snapshot = (key * value) list  (* sorted by key *)

let snapshot t : snapshot =
  Hashtbl.fold
    (fun key m acc ->
      let v =
        match m with
        | Counter c -> Vcounter c.c
        | Gauge g -> Vgauge g.g
        | Histogram h -> Vhistogram (Obs_histogram.copy h)
      in
      (key, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [diff newer older]: what happened between the two snapshots.
   Counters and histograms subtract; gauges keep the newer level.
   Entries that exist only in [newer] count from zero; entries that
   exist only in [older] are dropped. *)
let diff (newer : snapshot) (older : snapshot) : snapshot =
  List.filter_map
    (fun (key, nv) ->
      match (nv, List.assoc_opt key older) with
      | Vcounter n, Some (Vcounter o) ->
        if n = o then None else Some (key, Vcounter (n - o))
      | Vcounter n, _ -> if n = 0 then None else Some (key, Vcounter n)
      | Vgauge g, _ -> Some (key, Vgauge g)
      | Vhistogram h, Some (Vhistogram o) ->
        let d = Obs_histogram.diff h o in
        if Obs_histogram.count d = 0 then None else Some (key, Vhistogram d)
      | Vhistogram h, _ ->
        if Obs_histogram.count h = 0 then None else Some (key, Vhistogram h))
    newer

let find (snap : snapshot) ?(labels = []) name =
  List.assoc_opt { name; labels = canon_labels labels } snap

let counter_value snap ?labels name =
  match find snap ?labels name with
  | Some (Vcounter c) -> Some c
  | Some (Vgauge _ | Vhistogram _) | None -> None

let labels_to_json labels =
  Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Str v)) labels)

let snapshot_to_json (snap : snapshot) : Obs_json.t =
  let entry kind (key, payload) =
    Obs_json.Obj
      (( "name", Obs_json.Str key.name )
       :: (if key.labels = [] then []
           else [ ("labels", labels_to_json key.labels) ])
       @ [ (kind, payload) ])
  in
  let counters =
    List.filter_map
      (function
        | key, Vcounter c -> Some (entry "value" (key, Obs_json.Int c))
        | _, (Vgauge _ | Vhistogram _) -> None)
      snap
  and gauges =
    List.filter_map
      (function
        | key, Vgauge g -> Some (entry "value" (key, Obs_json.Float g))
        | _, (Vcounter _ | Vhistogram _) -> None)
      snap
  and histograms =
    List.filter_map
      (function
        | key, Vhistogram h ->
          Some (entry "histogram" (key, Obs_histogram.to_json h))
        | _, (Vcounter _ | Vgauge _) -> None)
      snap
  in
  Obs_json.Obj
    [ ("counters", Obs_json.Arr counters);
      ("gauges", Obs_json.Arr gauges);
      ("histograms", Obs_json.Arr histograms) ]
