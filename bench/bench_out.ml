(* Machine-readable experiment output.

   Every experiment in bench/main.ml runs inside [with_experiment]: it
   gets a fresh, active observability instance (handed to every
   [Sim.create] via [obs ()]) and process-global crypto counters reset
   and enabled for its duration.  On completion the harness writes
   BENCH_<id>.json next to the working directory, a [bench] report:

     { the Report header (kind "bench", no "runs"), "gate": [...],
       "virtual_time_total": <float>,   (* summed over all sims *)
       "crypto_ops":      { "modexp": n, ... },
       ... any extra fields the experiment [put] }

   The gate holds the virtual time total and every crypto-op count
   (costs thresholded, path counters such as cache hits as info rows;
   [Obs_crypto.direction] says which), the rows the experiment adds
   with [gate], and every
   metrics counter as an info row keyed [name{labels}], so [sintra
   compare] shows per-counter deltas.  The per-layer message/byte
   counters carry labels [("layer", "rbc" | "cbc" | "abba" | ...)];
   virtual time per sim run is the "virtual_time" histogram (observed
   once at the end of every [Sim.run]). *)

let current : Obs.t ref = ref Obs.noop
let extras : (string * Obs_json.t) list ref = ref []
let gates : Report.gate list ref = ref []

let obs () = !current

(* Attach an extra top-level field to the current experiment's JSON.
   Later [put]s of the same key win. *)
let put key v = extras := (key, v) :: List.remove_assoc key !extras

(* Add gate rows to the current experiment's report. *)
let gate rows = gates := !gates @ rows

let out_path id = Printf.sprintf "BENCH_%s.json" id

let virtual_time_total (snap : Obs_registry.snapshot) : float =
  match
    Obs_registry.find snap ~labels:[ ("layer", "sim") ] "virtual_time"
  with
  | Some (Obs_registry.Vhistogram h) -> Obs_histogram.sum h
  | Some (Obs_registry.Vcounter _ | Obs_registry.Vgauge _) | None -> 0.0

let counter_key (k : Obs_registry.key) =
  if k.labels = [] then k.name
  else
    Printf.sprintf "%s{%s}" k.name
      (String.concat ","
         (List.map (fun (l, v) -> l ^ "=" ^ v) k.labels))

let document ~id ~wall ?(gate = []) (o : Obs.t) fields =
  let snap = Obs.snapshot o in
  let vt = virtual_time_total snap in
  let counters =
    List.filter_map
      (function
        | k, Obs_registry.Vcounter c ->
          Some (Report.info (counter_key k) (float_of_int c))
        | _, (Obs_registry.Vgauge _ | Obs_registry.Vhistogram _) -> None)
      snap
  in
  Report.make Report.Bench ~experiment:id ~wall ~obs:o
    ~gate:
      ((Report.threshold Report.Lower "virtual time total" vt
       :: List.map
            (fun k ->
              let metric = "crypto " ^ Obs_crypto.name k in
              let v = float_of_int (Obs_crypto.count k) in
              match Obs_crypto.direction k with
              | Obs_crypto.Cost -> Report.threshold Report.Lower metric v
              | Obs_crypto.Path -> Report.info metric v)
            Obs_crypto.all_kinds)
      @ gate @ counters)
    ([ ("virtual_time_total", Obs_json.Float vt);
       ("crypto_ops", Obs_crypto.to_json ()) ]
    @ fields)

(* One TPUT sweep row's gate: throughput and rounds thresholded, the
   delivered count strict. *)
let tput_gate ~batch ~window ~decided_per_1k_steps ~rounds ~delivered =
  let tag = Printf.sprintf "b%dw%d " batch window in
  Report.
    [ threshold Higher (tag ^ "decided per 1k steps") decided_per_1k_steps;
      threshold Lower (tag ^ "rounds") (float_of_int rounds);
      strict Higher (tag ^ "delivered") (float_of_int delivered) ]

let with_experiment ~id (f : unit -> unit) : unit =
  let o = Obs.create () in
  current := o;
  extras := [];
  gates := [];
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let wall = Unix.gettimeofday () -. t0 in
      Obs_crypto.disable ();
      current := Obs.noop;
      let doc = document ~id ~wall ~gate:!gates o (List.rev !extras) in
      Printf.printf "[bench] wrote %s\n%!" (Report.write (out_path id) doc);
      Obs_crypto.reset ())
    f
