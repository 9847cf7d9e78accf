(* Span-based tracer over a bounded ring buffer.

   A span marks an interval of a protocol instance's life (an RBC echo
   phase, an ABBA round, an ABC epoch) against whatever clock the host
   provides — under the simulator that is the virtual clock, so spans
   line up with the adversary's schedule, not wall time.  Points are
   zero-length records (a delivery, a decision).

   Completed records land in a fixed-capacity ring, overwriting the
   oldest when full (the flight-recorder discipline: always-on tracing
   must have bounded memory, and the recent past is the interesting
   part); the number of overwritten records is counted, never silent.
   Everything exports to JSONL, one record per line, and parses back for
   offline analysis. *)

type record = {
  id : int;  (* > 0 for spans, 0 for points *)
  name : string;
  layer : string;
  tag : string;
  party : int;  (* -1 when not bound to a party *)
  src : int;  (* message source for delivery points; -1 otherwise *)
  depth : int;  (* number of spans open when this record began *)
  t_start : float;
  mutable t_end : float;
  mutable detail : string;
}

type t = {
  capacity : int;
  ring : record option array;
  mutable head : int;  (* next write position *)
  mutable filled : int;
  opened : (int, record) Hashtbl.t;
  mutable next_id : int;
  mutable started : int;
  mutable ended : int;
  mutable points : int;
  mutable dropped : int;  (* completed records overwritten by the ring *)
  now : unit -> float;
}

let create ?(capacity = 8192) ~now () =
  if capacity < 1 then invalid_arg "Obs_trace.create: capacity < 1";
  { capacity;
    ring = Array.make capacity None;
    head = 0;
    filled = 0;
    opened = Hashtbl.create 32;
    next_id = 1;
    started = 0;
    ended = 0;
    points = 0;
    dropped = 0;
    now }

let push t r =
  if t.filled = t.capacity then t.dropped <- t.dropped + 1
  else t.filled <- t.filled + 1;
  t.ring.(t.head) <- Some r;
  t.head <- (t.head + 1) mod t.capacity

let span_begin t ?(party = -1) ?(src = -1) ?(tag = "") ?(detail = "") ~layer
    name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.started <- t.started + 1;
  let at = t.now () in
  let r =
    { id; name; layer; tag; party; src;
      depth = Hashtbl.length t.opened;
      t_start = at; t_end = Float.nan; detail }
  in
  Hashtbl.add t.opened id r;
  id

let span_end t ?detail id =
  if id > 0 then
    match Hashtbl.find_opt t.opened id with
    | None -> ()  (* unknown or already ended: ignore *)
    | Some r ->
      Hashtbl.remove t.opened id;
      r.t_end <- t.now ();
      (match detail with Some d -> r.detail <- d | None -> ());
      t.ended <- t.ended + 1;
      push t r

let point t ?(party = -1) ?(src = -1) ?(tag = "") ?(detail = "") ~layer name =
  let at = t.now () in
  t.points <- t.points + 1;
  push t
    { id = 0; name; layer; tag; party; src;
      depth = Hashtbl.length t.opened;
      t_start = at; t_end = at; detail }

(* Completed records, oldest first, followed by still-open spans (their
   t_end is nan), ordered by start time. *)
let records t =
  let completed = ref [] in
  for i = t.capacity - 1 downto 0 do
    let j = (t.head + i) mod t.capacity in
    match t.ring.(j) with
    | Some r -> completed := r :: !completed
    | None -> ()
  done;
  let still_open =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.opened []
    |> List.sort (fun a b -> compare (a.t_start, a.id) (b.t_start, b.id))
  in
  !completed @ still_open

type stats = {
  spans_started : int;
  spans_ended : int;
  points_recorded : int;
  records_dropped : int;
}

let stats t =
  { spans_started = t.started;
    spans_ended = t.ended;
    points_recorded = t.points;
    records_dropped = t.dropped }

let truncated t = t.dropped > 0

(* Bounded window around an anomaly: the records whose start lies within
   [around - span, around + span], newest-biased — when more than
   [max_events] qualify, the ones closest to (and after) the anomaly
   survive and the count of elided earlier records is returned, so the
   hot tier never dumps the whole ring yet always says what it cut. *)
let window t ~around ~span ~max_events =
  let lo = around -. span and hi = around +. span in
  let in_window =
    List.filter (fun r -> r.t_start >= lo && r.t_start <= hi) (records t)
  in
  let total = List.length in_window in
  if total <= max_events then (in_window, 0)
  else
    let elide = total - max_events in
    let rec drop k = function
      | rest when k = 0 -> rest
      | _ :: rest -> drop (k - 1) rest
      | [] -> []
    in
    (drop elide in_window, elide)

let open_count t = Hashtbl.length t.opened

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.head <- 0;
  t.filled <- 0;
  Hashtbl.reset t.opened;
  t.started <- 0;
  t.ended <- 0;
  t.points <- 0;
  t.dropped <- 0

(* ---------- JSONL --------------------------------------------------- *)

let record_to_json (r : record) : Obs_json.t =
  Obs_json.Obj
    [ ("id", Obs_json.Int r.id);
      ("name", Obs_json.Str r.name);
      ("layer", Obs_json.Str r.layer);
      ("tag", Obs_json.Str r.tag);
      ("party", Obs_json.Int r.party);
      ("src", Obs_json.Int r.src);
      ("depth", Obs_json.Int r.depth);
      ("start", Obs_json.Float r.t_start);
      ("end",
       if Float.is_nan r.t_end then Obs_json.Null else Obs_json.Float r.t_end);
      ("detail", Obs_json.Str r.detail) ]

let record_of_json (j : Obs_json.t) : record option =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Obs_json.member k j) Obs_json.to_int in
  let str k = Option.bind (Obs_json.member k j) Obs_json.to_str in
  let flt k = Option.bind (Obs_json.member k j) Obs_json.to_float in
  let* id = int "id" in
  let* name = str "name" in
  let* layer = str "layer" in
  let* tag = str "tag" in
  let* party = int "party" in
  let* src = int "src" in
  let* depth = int "depth" in
  let* t_start = flt "start" in
  let t_end =
    match Obs_json.member "end" j with
    | Some Obs_json.Null | None -> Float.nan
    | Some v -> (match Obs_json.to_float v with Some f -> f | None -> Float.nan)
  in
  let* detail = str "detail" in
  Some { id; name; layer; tag; party; src; depth; t_start; t_end; detail }

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (Obs_json.to_string (record_to_json r));
      Buffer.add_char b '\n')
    (records t);
  Buffer.contents b

let of_jsonl (s : string) : (record list, string) result =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      (match Obs_json.of_string line with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok j ->
        (match record_of_json j with
        | None -> Error (Printf.sprintf "line %d: not a span record" lineno)
        | Some r -> go (r :: acc) (lineno + 1) rest))
  in
  go [] 1 lines
