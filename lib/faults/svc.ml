(* Sustained-load service campaigns: closed-loop clients driving the
   Section 5 services end to end — SVQ1 submission, threshold reply
   certificates, the read-only fast path, resend-based loss recovery —
   under benign, lossy and crash-rejoin schedules, with certificate /
   dedup / total-order / bounded-memory oracles and a machine-readable
   BENCH_SVC report (an [svc] {!Report}).

   The driver is a closed loop, not an open stream: each client keeps at
   most a window of requests in flight and tops the window up from a
   monitor poll timer until its quota of completed certificates is met.
   Abandoned requests (the client's resend budget ran out) shrink the
   in-flight count without completing, so the loop naturally re-submits
   fresh requests until the quota closes — the campaign measures the
   pipeline's goodput, not its luck. *)

type service_kind = Ca_svc | Directory_svc | Notary_svc

let kind_label = function
  | Ca_svc -> "ca"
  | Directory_svc -> "directory"
  | Notary_svc -> "notary"

type variant = Benign | Drop_arq | Crash_rejoin

let variant_label = function
  | Benign -> "benign"
  | Drop_arq -> "drop-arq"
  | Crash_rejoin -> "crash-rejoin"

(* Why a (kind, variant) cell is absent from the sweep — reported in
   the JSON artifact so a dropped cell reads as a documented refusal,
   not silent shrinkage of the matrix.  The notary runs over secure
   causal broadcast, which has no recovery wrapper (re-keying a revived
   replica's decryption share is future work; see the refusal note on
   {!Recovery.deploy}), so it cannot host the crash-rejoin variant. *)
let skip_reason kind variant =
  match (kind, variant) with
  | Notary_svc, Crash_rejoin ->
    Some
      "secure causal broadcast has no recovery wrapper: re-keying a \
       revived replica's decryption share is future work"
  | _ -> None

(* The fraction of submissions routed read-only, the checkpoint period
   of the Plain kinds (GC on), the batching policy, the [Drop_arq] chaos
   drop rate unless the core sets one, the limit on the GC'd
   delivered-log peak, and the per-run step bound unless the core sets
   one (a full sweep is >= 100k requests). *)
let read_frac = 0.75
let interval = 2
let abc_policy = { Abc.default_policy with Abc.max_batch_msgs = 8; window = 2 }
let drop = 0.3
let mem_bound = 40
let max_steps = 200_000_000

type run_result = {
  vr_kind : service_kind;
  vr_variant : variant;
  vr_seed : int;
  vr_target : int;
  vr_completed : int;
  vr_verified : int;
  vr_cert_failures : int;
  vr_reads : int;
  vr_fast_hits : int;
  vr_fallbacks : int;
  vr_retries : int;
  vr_timeouts : int;
  vr_rejected : int;
  vr_ordered : int;
  vr_executed : int;
  vr_dup_suppressed : int;
  vr_log_peak : int;
  vr_victim : int;
  vr_violations : Oracle.violation list;
  vr_steps : int;
  vr_clock : float;
}

type cell = service_kind * variant

let cell_label (kind, variant) = kind_label kind ^ "/" ^ variant_label variant

(* The monitor's poll period: it tops up the client windows and drives
   the timeline. *)
let poll = 400.0

(* The crash and the comeback are progress-driven (completed
   certificates), exactly like the recovery campaigns' outages. *)
let timeline ~drop variant =
  let open Sweep in
  match variant with
  | Benign -> []
  | Drop_arq -> [ { at = Start; act = Chaos (lossy drop) } ]
  | Crash_rejoin ->
    [ { at = Progress 0.3; act = Crash }; { at = Progress 0.7; act = Revive } ]

(* ---------- per-kind deployment + workload ----------------------------- *)

let kind_mode = function
  | Notary_svc -> Service.Confidential
  | Ca_svc | Directory_svc -> Service.Plain

let kind_make_app = function
  | Ca_svc -> Ca.make_app
  | Directory_svc -> Directory_service.make_app
  | Notary_svc -> Notary.make_app

let kind_read_only = function
  | Ca_svc -> Ca.read_only
  | Directory_svc -> Directory_service.read_only
  | Notary_svc -> Notary.read_only

(* Checkpoint GC applies to the Plain kinds; the confidential engine has
   no recovery wrapper, so the notary runs un-truncated (its un-GC'd log
   is reported but not gated). *)
let kind_interval = function
  | Notary_svc -> 0
  | Ca_svc | Directory_svc -> interval

(* Writes land in a bounded entity space keyed by [idx mod keyspace], so
   the read mix mostly hits state some earlier write created — the fast
   path serves real lookups, not just "not found" certificates (which
   are themselves valid, signed answers). *)
let write_body kind ~seed ~keyspace ~idx =
  let k = idx mod keyspace in
  match kind with
  | Ca_svc ->
    Ca.issue_request
      ~id:(Printf.sprintf "id-%d" k)
      ~pubkey:(Printf.sprintf "pk-%d-%d" seed idx)
      ~credentials:"svc!ok"
  | Directory_svc ->
    Directory_service.bind_request
      ~key:(Printf.sprintf "k-%d" k)
      ~value:(Printf.sprintf "v-%d-%d" seed idx)
  | Notary_svc ->
    Notary.register_request ~document:(Printf.sprintf "doc-%d-%d" seed k)

let read_body kind ~seed ~keyspace ~idx =
  let k = idx mod keyspace in
  match kind with
  | Ca_svc -> Ca.lookup_request ~id:(Printf.sprintf "id-%d" k)
  | Directory_svc ->
    if k land 7 = 0 then Directory_service.list_request ()
    else Directory_service.lookup_request ~key:(Printf.sprintf "k-%d" k)
  | Notary_svc ->
    (* The registry is keyed by document digest. *)
    Notary.query_request
      ~digest:(Sha256.digest (Printf.sprintf "doc-%d-%d" seed k))

(* ---------- one campaign run ------------------------------------------ *)

let run_one ~clients ~window ~keyspace ~(core : Sweep.core) ~max_steps
    (env : Sweep.env) (kind, variant) ~seed timeline =
  let n = core.n and requests = core.size in
  let keyring = env.keyring in
  let mode = kind_mode kind in
  let interval = kind_interval kind in
  if variant = Crash_rejoin && interval = 0 then
    invalid_arg "Svc.run_one: crash-rejoin needs a checkpointing kind";
  let sim = Sim.create ~n ~extra:(clients + 2) ~seed ~obs:env.obs () in
  let victim = if variant = Crash_rejoin then abs seed mod n else -1 in
  let faults = Sweep.start env ~victim sim timeline in
  let link = match variant with Drop_arq -> Some Link.default_policy | _ -> None in
  let dep =
    Service.deploy ~policy:abc_policy ?link
      ?ckpt_interval:(if interval > 0 then Some interval else None)
      ~read_only:(kind_read_only kind) ~sim ~keyring ~mode
      ~make_app:(kind_make_app kind) ()
  in
  let fleet =
    Array.init clients (fun i ->
        Service.Client.create ~sim ~keyring ~slot:(n + i)
          ~seed:((seed * 131) + i)
          ())
  in
  (* Quotas: [requests] completions split across the clients. *)
  let quota =
    Array.init clients (fun i ->
        (requests / clients) + if i < requests mod clients then 1 else 0)
  in
  let target = Array.fold_left ( + ) 0 quota in
  let completed = Array.make clients 0 in
  let verified = ref 0 and cert_bad = ref 0 in
  let reads = ref 0 and issued = ref 0 in
  let rng = Prng.create ~seed:(seed lxor 0x51c5) in
  let submit ci =
    let idx = !issued in
    incr issued;
    let read = Prng.float rng < read_frac in
    let body =
      if read then (
        incr reads;
        read_body kind ~seed ~keyspace ~idx)
      else write_body kind ~seed ~keyspace ~idx
    in
    let fin rc =
      (* Every accepted certificate is re-verified by the harness — the
         "all accepted reply certificates verify" acceptance check. *)
      if Service.verify_reply_cert keyring rc then incr verified
      else incr cert_bad;
      completed.(ci) <- completed.(ci) + 1
    in
    if read then Service.Client.query fleet.(ci) ~mode body fin
    else Service.Client.request fleet.(ci) ~mode body fin
  in
  let top_up () =
    Array.iteri
      (fun ci c ->
        while
          completed.(ci) + Service.Client.inflight c < quota.(ci)
          && Service.Client.inflight c < window
        do
          submit ci
        done)
      fleet
  in
  let total_completed () = Array.fold_left ( + ) 0 completed in
  top_up ();
  Sweep.drive faults ~monitor:(n + clients) ~period:poll ~total:target
    ~progress:total_completed
    ~tick:(fun () ->
      top_up ();
      total_completed () < target)
    (function
      | Sweep.Revive -> ignore (Service.revive dep victim) | _ -> ());
  let done_ () = total_completed () >= target in
  let stall = Sweep.run_sim sim ~max_steps ~until:done_ in
  let nodes = Service.nodes dep in
  let never_crashed p = p <> victim in
  (* Oracles.  Every accepted certificate is re-verified here, from
     outside the client (which trusts what its combine returns): a
     failed re-check is a pipeline bug. *)
  let cert_violations =
    Sweep.unless (!cert_bad = 0) Oracle.Safety "svc-cert"
      (Printf.sprintf "%d accepted certificates failed re-verification"
         !cert_bad)
  in
  (* Dedup bookkeeping: every ordered delivery is either executed or
     suppressed as a replay — a mismatch means a request was silently
     dropped or double-executed.  Replicas that crashed restart their
     counters at revive, so the check covers never-crashed replicas. *)
  let dedup_violations =
    List.concat_map
      (fun p ->
        if not (never_crashed p) then []
        else
          let nd = nodes.(p) in
          let drift =
            nd.Service.ordered
            - (nd.Service.executed + nd.Service.dup_suppressed)
          in
          Sweep.unless
            (drift = 0 && nd.Service.malformed = 0)
            ~party:p Oracle.Safety "svc-dedup"
            (Printf.sprintf
               "ordered %d <> executed %d + dup_suppressed %d (malformed %d)"
               nd.Service.ordered nd.Service.executed
               nd.Service.dup_suppressed nd.Service.malformed))
      (List.init n Fun.id)
  in
  let histories =
    Array.map
      (fun nd ->
        match Service.abc_of nd with
        | Some abc -> Abc.delivered_digests abc
        | None -> [])
      nodes
  in
  let order_violations =
    Oracle.total_order ~honest:(Pset.full n) histories
  in
  let fold_engines f =
    Array.fold_left
      (fun acc nd ->
        match Service.abc_of nd with
        | Some abc -> max acc (f abc)
        | None -> acc)
      0 nodes
  in
  let log_peak = fold_engines Abc.log_peak in
  let memory_violations =
    Sweep.unless
      (interval = 0 || log_peak <= mem_bound)
      Oracle.Safety "svc-memory"
      (Printf.sprintf "GC'd delivered-log peak %d exceeds bound %d" log_peak
         mem_bound)
  in
  (* A stalled run already names its liveness failure. *)
  let quota_violations =
    Sweep.unless (stall <> [] || done_ ()) Oracle.Liveness "svc-quota"
      (Printf.sprintf "completed %d of %d before quiescence"
         (total_completed ()) target)
  in
  let sum_clients f = Array.fold_left (fun a c -> a + f c) 0 fleet in
  let sum_replicas f =
    Array.to_list nodes
    |> List.mapi (fun p nd -> if never_crashed p then f nd else 0)
    |> List.fold_left ( + ) 0
  in
  {
    vr_kind = kind;
    vr_variant = variant;
    vr_seed = seed;
    vr_target = target;
    vr_completed = total_completed ();
    vr_verified = !verified;
    vr_cert_failures = !cert_bad;
    vr_reads = !reads;
    vr_fast_hits = sum_clients Service.Client.fastpath_hits;
    vr_fallbacks = sum_clients Service.Client.fallbacks;
    vr_retries = sum_clients Service.Client.retries;
    vr_timeouts = sum_clients Service.Client.timeouts;
    vr_rejected = sum_clients Service.Client.rejected_replies;
    vr_ordered = sum_replicas (fun nd -> nd.Service.ordered);
    vr_executed = sum_replicas (fun nd -> nd.Service.executed);
    vr_dup_suppressed = sum_replicas (fun nd -> nd.Service.dup_suppressed);
    vr_log_peak = log_peak;
    vr_victim = victim;
    vr_violations =
      stall @ cert_violations @ dedup_violations @ order_violations
      @ memory_violations @ quota_violations;
    vr_steps = Sim.steps sim;
    vr_clock = Sim.clock sim;
  }

(* ---------- the campaign ---------------------------------------------- *)

let plain_log_peak results =
  List.fold_left
    (fun acc r ->
      if kind_mode r.vr_kind = Service.Plain then max acc r.vr_log_peak
      else acc)
    0 results

let run_json r =
  [
    ("target", Obs_json.Int r.vr_target);
    ("completed", Obs_json.Int r.vr_completed);
    ("verified", Obs_json.Int r.vr_verified);
    ("cert_failures", Obs_json.Int r.vr_cert_failures);
    ("reads", Obs_json.Int r.vr_reads);
    ("fast_hits", Obs_json.Int r.vr_fast_hits);
    ("fallbacks", Obs_json.Int r.vr_fallbacks);
    ("retries", Obs_json.Int r.vr_retries);
    ("timeouts", Obs_json.Int r.vr_timeouts);
    ("rejected", Obs_json.Int r.vr_rejected);
    ("ordered", Obs_json.Int r.vr_ordered);
    ("executed", Obs_json.Int r.vr_executed);
    ("dup_suppressed", Obs_json.Int r.vr_dup_suppressed);
    ("log_peak", Obs_json.Int r.vr_log_peak);
    ("victim", Obs_json.Int r.vr_victim);
    ("clock", Obs_json.Float r.vr_clock);
  ]

(* The swept matrix, before [skip_reason] takes out what a kind cannot
   host. *)
let kinds = [ Ca_svc; Directory_svc; Notary_svc ]
let variants = [ Benign; Drop_arq; Crash_rejoin ]

(* The gate.  Throughput is deterministic: completions per thousand
   simulator steps (wall-clock requests/s depend on the host, and
   readers derive them from [wall_time_s]). *)
let close _env (t : Sweep.totals) results =
  let total f = Sweep.sum f results in
  let ratio ?(scale = 1.0) a b =
    if b = 0 then 0.0 else scale *. float_of_int a /. float_of_int b
  in
  let reads = total (fun r -> r.vr_reads)
  and hits = total (fun r -> r.vr_fast_hits) in
  Report.
    [
      must Lower "safety violations" ~limit:0.0 (float t.safety);
      must Lower "certificate failures" ~limit:0.0
        (float (total (fun r -> r.vr_cert_failures)));
      (* summed per run, so one run's surplus cannot hide another's
         shortfall *)
      must Lower "missed requests" ~limit:0.0
        (float (total (fun r -> max 0 (r.vr_target - r.vr_completed))));
      threshold Higher "requests per 1k steps"
        (ratio ~scale:1000.0 (total (fun r -> r.vr_completed)) t.steps);
      threshold Higher "fast-path rate" (ratio hits reads);
      threshold Lower "GC'd log peak" ~limit:(float mem_bound)
        (float (plain_log_peak results));
      threshold Lower "client retries"
        (float (total (fun r -> r.vr_retries)));
      threshold Lower "client timeouts"
        (float (total (fun r -> r.vr_timeouts)));
      must Lower "fast path never hit" ~limit:0.0
        (float (Bool.to_int (reads > 0 && hits = 0)));
    ]

(* The cells [skip_reason] takes out, each with its reason. *)
let skipped_json =
  Obs_json.Arr
    (List.filter_map
       (fun (kind, variant) ->
         Option.map
           (fun reason ->
             Obs_json.Obj
               [
                 ("kind", Obs_json.Str (kind_label kind));
                 ("variant", Obs_json.Str (variant_label variant));
                 ("reason", Obs_json.Str reason);
               ])
           (skip_reason kind variant))
       (Sweep.product kinds variants))

let campaign ?(clients = 3) ?(window = 4) ?(keyspace = 16)
    (core : Sweep.core) =
  let drop = Option.value core.drop ~default:drop
  and max_steps = Option.value core.max_steps ~default:max_steps in
  {
    Sweep.kind = Report.Svc;
    core;
    max_steps;
    key_offset = 7770;
    cells =
      List.filter
        (fun (kind, v) -> skip_reason kind v = None)
        (Sweep.product kinds variants);
    label = cell_label;
    timeline = (fun (_, variant) -> timeline ~drop variant);
    run_one = run_one ~clients ~window ~keyspace ~core ~max_steps;
    violations = (fun r -> r.vr_violations);
    steps = (fun r -> r.vr_steps);
    row = run_json;
    close;
    constants =
      Obs_json.
        [ ("clients", Int clients); ("window", Int window);
          ("keyspace", Int keyspace); ("read_frac", Float read_frac);
          ("interval", Int interval); ("mem_bound", Int mem_bound);
          ("skipped", skipped_json) ];
  }
