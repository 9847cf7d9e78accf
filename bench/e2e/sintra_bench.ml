(* End-to-end service benchmark: one workload per process.

     sintra_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] runs the workload and prints the end-to-end metrics;
   [--trace 1] prints the per-layer metrics of a traced replay plus the
   reference rows.  A run issues as many requests as take S seconds at
   the reference host speed (see Workload.requests and Host).  Every
   metric goes to stdout as "name value unit (n=samples)", and the last
   line is one JSON object {"correct", "attempted", "failed", "metrics"}.
   The printed names and units are checked against BENCHMARK.json in the
   current directory, when present, and the exit code is 1 when any
   correctness gate fails.  [--smoke] runs a few dozen requests
   instead. *)

let now = Unix.gettimeofday
let median = Refs.median
let ratio a b = if b = 0. then 0. else a /. b

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

(* ---------- statistics ------------------------------------------------ *)

let latencies pred (r : Workload.result) =
  let a =
    Array.of_list
      (List.filter_map
         (fun (c : Workload.completion) ->
           if pred c then Some (c.c_done -. c.c_due) else None)
         (Array.to_list r.done_))
  in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let percentile p a =
  let k = Array.length a in
  if k = 0 then 0.
  else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int k)) - 1))

let reads_of (c : Workload.completion) = c.c_read
let writes_of (c : Workload.completion) = not c.c_read

(* Certificates per second at the reference host speed: wall throughput
   of the run loop, probe time excluded, divided by the host's measured
   speed. *)
let certs_per_s (r : Workload.result) (h : Host.t) =
  ratio
    (float_of_int (Array.length r.done_))
    (r.loop_end -. r.loop_start -. h.Host.spent)
  /. Host.speed h

(* ---------- correctness gates ----------------------------------------- *)

let sum_clients (d : Workload.deployment) f =
  Array.fold_left (fun a c -> a + f c) 0 d.cl

let honest (d : Workload.deployment) (r : Workload.result) =
  List.filter (fun p -> p <> r.victim) (List.init d.w.n Fun.id)

(* Failed requests, and the reason for every violated gate. *)
let gates (d : Workload.deployment) (r : Workload.result) =
  let bad = r.bad_certs in
  let client_bad = sum_clients d Service.Client.cert_failures in
  let nodes = Service.nodes d.dep in
  let honest = honest d r in
  let order =
    Oracle.total_order ~honest:(Pset.of_list honest)
      (Array.map
         (fun nd ->
           match Service.abc_of nd with
           | Some abc -> Abc.delivered_digests abc
           | None -> [])
         nodes)
  in
  let dedup =
    List.filter_map
      (fun p ->
        let nd = nodes.(p) in
        if
          nd.Service.ordered = nd.Service.executed + nd.Service.dup_suppressed
          && nd.Service.malformed = 0
        then None
        else
          Some
            (Printf.sprintf
               "replica %d: ordered %d <> executed %d + dup_suppressed %d (malformed %d)"
               p nd.Service.ordered nd.Service.executed
               nd.Service.dup_suppressed nd.Service.malformed))
      honest
  in
  let completed = Array.length r.done_ in
  let problems =
    List.concat
      [
        (if bad > 0 then
           [ Printf.sprintf "%d accepted certificates failed re-verification" bad ]
         else []);
        (if client_bad > 0 then
           [ Printf.sprintf "%d client-side certificate failures" client_bad ]
         else []);
        List.map Oracle.violation_to_string order;
        dedup;
        (if completed + r.abandoned <> r.issued then
           [ Printf.sprintf "%d issued but %d completed + %d abandoned" r.issued
               completed r.abandoned ]
         else []);
        (if r.hung then [ "run cut short by the wall-time limit" ] else []);
      ]
  in
  (r.abandoned + bad + client_bad, problems)

(* The traced replay must reproduce the untraced run exactly. *)
let fidelity (a : Workload.result) (b : Workload.result) =
  let same name x y = if x = y then [] else [ name ] in
  let key (r : Workload.result) =
    Array.map (fun (c : Workload.completion) -> (c.c_idx, c.c_read, c.c_due, c.c_done)) r.done_
  in
  match
    List.concat
      [
        same "issued" a.issued b.issued;
        same "completions and their virtual times" (key a) (key b);
        same "steps" a.steps b.steps;
        same "messages" a.messages b.messages;
        same "bytes" a.bytes b.bytes;
        same "drops" a.drops b.drops;
        same "outages" a.outages b.outages;
        same "rejoins" a.rejoins b.rejoins;
      ]
  with
  | [] -> []
  | diff -> [ "traced replay diverged from the untraced run: " ^ String.concat ", " diff ]

(* ---------- metrics --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let vms_metrics prefix pred r =
  let a = latencies pred r in
  let k = Array.length a in
  [
    metric ~samples:k (prefix ^ "_vms_p50") "vms" (percentile 0.5 a);
    metric ~samples:k (prefix ^ "_vms_p95") "vms" (percentile 0.95 a);
  ]

(* ---------- set-up ---------------------------------------------------- *)

(* Dealing keys, deploying the replicas and attaching the clients, timed
   over a fixed panel of seeds with a host probe before each; the median
   is reported at the reference host speed.  The panel is the same in
   every run because the dealer's safe-prime search alone takes 4 to 65 ms
   depending on the seed: timing the run's own seed would compare luck in
   that search, not code. *)
let setup_panel = List.init 15 (fun i -> 1_000_000 + i)

let setup_s w =
  let h = Host.create () in
  let times =
    List.map
      (fun seed ->
        Host.probe h;
        let t0 = now () in
        ignore (Workload.deploy w ~keyring:(Workload.deal w ~seed) ~seed);
        now () -. t0)
      setup_panel
  in
  median times *. Host.speed h

let requests o w ~share =
  if o.smoke then w.Workload.smoke_requests
  else Workload.requests w ~seconds:(o.seconds *. share)

(* A stall guard only, shared by every pass of the process so that it
   ends within three minutes: a healthy run ends long before it. *)
let hard_limit = now () +. 150.

(* ---------- the two modes --------------------------------------------- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

let end_to_end o w =
  let setup_s = setup_s w in
  let d = Workload.deploy w ~keyring:(Workload.deal w ~seed:o.seed) ~seed:o.seed in
  let h = Host.create () in
  let r =
    Workload.run ~on_step:(Host.on_step h) ~requests:(requests o w ~share:1.)
      ~hard_limit ~seed:o.seed d
  in
  let failed, problems = gates d r in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  Printf.printf "# %d requests in %.2f s wall, host speed %.3f of the reference\n"
    r.issued (r.loop_end -. r.loop_start) (Host.speed h);
  {
    metrics =
      [ metric ~samples:(List.length setup_panel) "setup_s" "s" setup_s;
        metric ~samples:(Array.length r.done_) "certs_per_s" "1/s" (certs_per_s r h) ]
      @ vms_metrics "write" writes_of r
      @ [ metric "heap_peak_mb" "MiB" heap_mb ];
    attempted = r.issued;
    failed;
    problems;
  }

let registry_sum snap name =
  List.fold_left
    (fun acc ((k : Obs_registry.key), v) ->
      match v with
      | Obs_registry.Vcounter c when k.name = name -> acc + c
      | _ -> acc)
    0 snap

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* An untraced pass of half the run's size, then a traced pass that
   replays it exactly with every delivery timed, then the reference
   rows: crypto unit costs, the host kernel before and after, and the
   same mix on a single replica. *)
let per_layer o w =
  let seed = o.seed in
  let keyring = Workload.deal w ~seed in
  let kernel_before = Refs.kernel_ms () in
  let d = Workload.deploy w ~keyring ~seed in
  let h = Host.create () in
  let gc0 = Gc.quick_stat () in
  let r =
    Workload.run ~on_step:(Host.on_step h) ~requests:(requests o w ~share:0.5)
      ~hard_limit ~seed d
  in
  let gc1 = Gc.quick_stat () in
  let failed, problems = gates d r in
  let tr = Trace.create () and obs = Obs.create () and ht = Host.create () in
  Obs_crypto.reset ();
  Obs_crypto.enable ();
  let dt = Workload.deploy ~obs ~wrap:(Trace.wrap tr) w ~keyring ~seed in
  let pass_start = now () in
  let rt =
    Workload.run ~wrap:(Trace.wrap tr)
      ~on_step:(fun () -> Trace.on_step tr dt.sim (); Host.on_step ht ())
      ~requests:r.issued ~hard_limit ~seed dt
  in
  let pass = now () -. pass_start in
  Obs_crypto.disable ();
  let t_failed, t_problems = gates dt rt in
  let kernel_after = Refs.kernel_ms () in
  let crypto_us =
    Refs.crypto_us ~budget:(if o.smoke then 0.002 else 0.1) keyring
      (Option.get r.first_cert)
  in
  let w1 = { w with Workload.n = 1; t = 0; crash_cycle = 0 } in
  let d1 = Workload.deploy w1 ~keyring:(Workload.deal w1 ~seed) ~seed in
  let h1 = Host.create () in
  let r1 =
    Workload.run ~on_step:(Host.on_step h1) ~requests:(requests o w ~share:0.25)
      ~hard_limit ~seed d1
  in
  let n1_failed, n1_problems = gates d1 r1 in
  mkdir_p o.out;
  Trace.write tr
    ~path:(Filename.concat o.out (Printf.sprintf "%s-%d.trace.jsonl" w.name seed))
    ~workload:w.name ~seed rt;
  let certs = float_of_int (Array.length rt.done_) in
  let per_cert x = ratio (float_of_int x) certs in
  let loop = rt.loop_end -. rt.loop_start -. ht.spent in
  let busy = Trace.busy_total tr in
  let classes =
    List.concat
      (List.mapi
         (fun c name ->
           let msgs = tr.msgs.(c) in
           [ metric ~samples:msgs (name ^ ".busy_share") "share" (tr.busy.(c) /. loop);
             metric ~samples:msgs (name ^ ".us_per_msg") "us"
               (1e6 *. ratio tr.busy.(c) (float_of_int msgs));
             metric ~samples:msgs (name ^ ".msgs_per_cert") "msg/cert" (per_cert msgs) ])
         (Array.to_list Trace.classes))
  in
  let nodes = Service.nodes dt.dep and hon = honest dt rt in
  let sum_honest f = List.fold_left (fun a p -> a + f nodes.(p)) 0 hon in
  let abc_of p = Option.get (Service.abc_of nodes.(p)) in
  let snap = Obs.snapshot obs in
  let reads = float_of_int rt.reads in
  let writes = float_of_int (rt.issued - rt.reads) in
  let client f = float_of_int (sum_clients dt f) in
  let crypto name kind =
    metric ("crypto." ^ name ^ "_per_cert") "op/cert" (per_cert (Obs_crypto.count kind))
  in
  let metrics =
    classes
    @ [
        metric ~samples:rt.steps "sim.residual_share" "share" (1. -. (busy /. loop));
        metric ~samples:rt.steps "sim.us_per_step" "us"
          (1e6 *. ratio (loop -. busy) (float_of_int rt.steps));
        metric "sim.steps_per_cert" "step/cert" (per_cert rt.steps);
        metric ~samples:tr.queue_samples "sim.queue_mean" "events"
          (ratio (float_of_int tr.queue_sum) (float_of_int tr.queue_samples));
        metric ~samples:tr.queue_samples "sim.queue_max" "events"
          (float_of_int tr.queue_max);
        metric "net.msgs_per_cert" "msg/cert" (per_cert rt.messages);
        metric "net.bytes_per_cert" "B/cert" (per_cert rt.bytes);
        metric "net.drops_per_cert" "msg/cert" (per_cert rt.drops);
        metric "link.retransmits_per_cert" "msg/cert"
          (per_cert (registry_sum snap "link_retransmit"));
        metric "link.dup_suppressed_per_cert" "msg/cert"
          (per_cert (registry_sum snap "link_dup_suppressed"));
        metric "client.retries_per_cert" "1/cert"
          (ratio (client Service.Client.retries) certs);
        metric ~samples:rt.reads "client.fastpath_hit_ratio" "ratio"
          (ratio (client Service.Client.fastpath_hits) reads);
        metric ~samples:rt.reads "client.fallbacks_per_read" "ratio"
          (ratio (client Service.Client.fallbacks) reads);
        metric "client.rejected_per_cert" "1/cert"
          (ratio (client Service.Client.rejected_replies) certs);
        metric "service.dup_ratio" "ratio"
          (ratio
             (float_of_int (sum_honest (fun nd -> nd.Service.dup_suppressed)))
             (float_of_int (sum_honest (fun nd -> nd.Service.ordered))));
        metric "service.ordered_per_write" "ratio"
          (ratio
             (float_of_int (sum_honest (fun nd -> nd.Service.ordered))
             /. float_of_int (List.length hon))
             writes);
        metric "abc.writes_per_round" "req/round"
          (median
             (List.map
                (fun p ->
                  ratio
                    (float_of_int (Abc.delivered_count (abc_of p)))
                    (float_of_int (Abc.current_round (abc_of p))))
                hon));
        metric "abc.log_peak" "entries"
          (float_of_int (List.fold_left (fun a p -> max a (Abc.log_peak (abc_of p))) 0 hon));
        metric "recovery.ckpts_per_kcert" "1/kcert"
          (1000. *. ratio
             (float_of_int (registry_sum snap "ckpt_certified") /. float_of_int w.n)
             certs);
        metric "recovery.transfer_bytes" "B"
          (float_of_int (registry_sum snap "state_transfer_bytes"));
        crypto "modexp" Obs_crypto.Modexp;
        crypto "verify" Obs_crypto.Verify;
        crypto "share_verify" Obs_crypto.Share_verify;
        crypto "sign" Obs_crypto.Sign;
        crypto "combine" Obs_crypto.Combine;
        crypto "fixed_base_exp" Obs_crypto.Fixed_base_exp;
        crypto "multi_exp" Obs_crypto.Multi_exp;
        crypto "hash_to_group" Obs_crypto.Hash_to_group;
        crypto "batch_verify" Obs_crypto.Batch_verify;
      ]
    @ List.map (fun (name, us) -> metric ~samples:Refs.batches name "us" us) crypto_us
    @ [
        metric "gc.minor_mwords_per_cert" "Mword/cert"
          (ratio ((gc1.minor_words -. gc0.minor_words) /. 1e6)
             (float_of_int (Array.length r.done_)));
        metric "gc.major_per_kcert" "1/kcert"
          (1000. *. ratio
             (float_of_int (gc1.major_collections - gc0.major_collections))
             (float_of_int (Array.length r.done_)));
        metric ~samples:2 "host.ref_kernel_ms" "ms" ((kernel_before +. kernel_after) /. 2.);
        metric ~samples:ht.probes "host.speed" "ratio" (Host.speed ht);
        metric "trace.overhead" "ratio" ((certs_per_s r h /. certs_per_s rt ht) -. 1.);
        metric ~samples:(Array.length r1.done_) "ref.n1_certs_per_s" "1/s"
          (certs_per_s r1 h1);
      ]
    @ vms_metrics "client.read" reads_of rt
    @ [
        metric ~samples:(List.length rt.outages) "recovery.outage_vms" "vms"
          (median rt.outages);
        metric ~samples:(List.length rt.rejoins) "recovery.rejoin_vms" "vms"
          (median rt.rejoins);
        metric ~samples:rt.issued "gen.late_vms_mean" "vms"
          (ratio rt.late (float_of_int rt.issued));
      ]
  in
  Printf.printf
    "# untraced %d requests in %.2f s; traced loop %.2f s (%.1f%% of the traced pass), %d spans (%d dropped)\n"
    r.issued (r.loop_end -. r.loop_start) loop (100. *. loop /. pass) tr.len tr.dropped;
  Printf.printf "# host kernel %.1f ms before, %.1f ms after\n" kernel_before kernel_after;
  {
    metrics;
    attempted = r.issued + rt.issued + r1.issued;
    failed = failed + t_failed + n1_failed;
    problems = problems @ t_problems @ fidelity r rt @ n1_problems;
  }

(* ---------- spec check and output ------------------------------------- *)

(* Names and units printed must be exactly those BENCHMARK.json declares
   for this mode. *)
let check_spec ~trace metrics =
  let path = "BENCHMARK.json" in
  if not (Sys.file_exists path) then []
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    let key = if trace then "per_layer" else "end_to_end" in
    let declared =
      match Obs_json.of_string text with
      | Error e -> Error e
      | Ok doc -> (
        match Option.bind (Obs_json.member key doc) Obs_json.to_list with
        | None -> Error ("no " ^ key ^ " list")
        | Some l ->
          Ok
            (List.filter_map
               (fun m ->
                 match
                   ( Option.bind (Obs_json.member "name" m) Obs_json.to_str,
                     Option.bind (Obs_json.member "unit" m) Obs_json.to_str )
                 with
                 | Some n, Some u -> Some (n, u)
                 | _ -> None)
               l))
    in
    match declared with
    | Error e -> [ Printf.sprintf "%s: %s" path e ]
    | Ok declared ->
      let printed = List.map (fun m -> (m.name, m.unit_)) metrics in
      let missing l1 l2 = List.filter (fun x -> not (List.mem x l2)) l1 in
      let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") l) in
      (match missing declared printed with
      | [] -> []
      | l -> [ Printf.sprintf "declared in %s but not printed: %s" path (show l) ])
      @ (match missing printed declared with
        | [] -> []
        | l -> [ Printf.sprintf "printed but not declared in %s: %s" path (show l) ])

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let smoke = ref false and out = ref "bench/e2e/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
        "NAME  " ^ String.concat " | " (List.map (fun w -> w.Workload.name) Workload.all));
      ("--seed", Arg.Set_int seed, "N  seed of every random input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  wall seconds to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " a few dozen requests instead of --seconds");
      ("--out", Arg.Set_string out, "DIR  where the traced pass writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sintra_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    smoke = !smoke; out = !out }

let () =
  let o = parse_args () in
  let w =
    match Workload.find o.workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ o.workload);
      exit 2
  in
  let res = if o.trace then per_layer o w else end_to_end o w in
  let problems = res.problems @ check_spec ~trace:o.trace res.metrics in
  List.iter
    (fun m -> Printf.printf "%-36s %16.6g %-10s (n=%d)\n" m.name m.value m.unit_ m.samples)
    res.metrics;
  List.iter (fun p -> Printf.eprintf "GATE FAILED: %s\n" p) problems;
  let correct = problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
              m.unit_)
          res.metrics));
  exit (if correct then 0 else 1)
