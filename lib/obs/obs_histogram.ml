(* Log-scale histograms with power-of-two buckets.

   Bucket 0 collects every observation below 1.0 (including negatives);
   bucket i >= 1 collects [2^(i-1), 2^i); the last bucket is unbounded
   above.  The index is computed with [Float.frexp], so boundaries are
   exact: observing 2.0 lands in the [2,4) bucket, never in [1,2).

   This shape covers everything the protocol stack observes — message
   sizes in bytes, virtual-time latencies, round counts — in a fixed
   64-slot array with O(1) updates, which is what an always-on sink
   needs (cf. the ring-buffer design constraint of flight-recorder-style
   telemetry). *)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;  (* meaningful only when count > 0 *)
  mutable vmax : float;
  buckets : int array;
}

let n_buckets = 64

let create () =
  { count = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity;
    buckets = Array.make n_buckets 0 }

let copy t =
  { count = t.count; sum = t.sum; vmin = t.vmin; vmax = t.vmax;
    buckets = Array.copy t.buckets }

(* [2^(i-1), 2^i) for i >= 1; everything below 1.0 in bucket 0. *)
let bucket_index v =
  if v < 1.0 || Float.is_nan v then 0
  else begin
    let _, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), hence 2^(e-1) <= v < 2^e *)
    min (n_buckets - 1) e
  end

let bucket_lower i = if i <= 0 then 0.0 else Float.ldexp 1.0 (i - 1)

let bucket_upper i =
  if i >= n_buckets - 1 then infinity else Float.ldexp 1.0 i

let observe t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then None else Some t.vmin
let max_value t = if t.count = 0 then None else Some t.vmax
let mean t = if t.count = 0 then None else Some (t.sum /. float_of_int t.count)
let bucket t i = t.buckets.(i)

let merge a b =
  let r = copy a in
  r.count <- a.count + b.count;
  r.sum <- a.sum +. b.sum;
  r.vmin <- Float.min a.vmin b.vmin;
  r.vmax <- Float.max a.vmax b.vmax;
  Array.iteri (fun i c -> r.buckets.(i) <- a.buckets.(i) + c) b.buckets;
  r

(* [diff newer older]: the observations recorded after [older] was
   snapshotted.  min/max cannot be subtracted, so the newer extremes are
   kept; bucket counts clamp at zero to stay meaningful if [older] is
   not actually a prefix of [newer]. *)
let diff newer older =
  let r = copy newer in
  r.count <- max 0 (newer.count - older.count);
  r.sum <- newer.sum -. older.sum;
  Array.iteri
    (fun i c -> r.buckets.(i) <- max 0 (newer.buckets.(i) - c))
    older.buckets;
  r

(* Upper bound of the bucket holding the p-th percentile (0 < p <= 100):
   a conservative estimate good enough for bench summaries. *)
let percentile t p =
  if t.count = 0 then None
  else begin
    let target =
      int_of_float (ceil (float_of_int t.count *. p /. 100.0))
    in
    let target = max 1 (min t.count target) in
    let acc = ref 0 and found = ref None in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if !found = None && !acc >= target then found := Some i)
      t.buckets;
    match !found with
    | Some i when i = n_buckets - 1 -> Some t.vmax
    | Some i -> Some (Float.min (bucket_upper i) t.vmax)
    | None -> None
  end

(* Sparse JSON rendering: only non-empty buckets, as [index, count]
   pairs, so 64 mostly-zero slots do not bloat the bench records. *)
let to_json t =
  let buckets =
    Array.to_list t.buckets
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) -> Obs_json.Arr [ Obs_json.Int i; Obs_json.Int c ])
  in
  Obs_json.Obj
    ([ ("count", Obs_json.Int t.count); ("sum", Obs_json.Float t.sum) ]
    @ (if t.count = 0 then []
       else
         [ ("min", Obs_json.Float t.vmin); ("max", Obs_json.Float t.vmax) ])
    @ [ ("buckets", Obs_json.Arr buckets) ])
