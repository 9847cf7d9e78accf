(* Command-line interface to the SINTRA reproduction: inspect adversary
   structures, run protocol simulations, and exercise the trusted
   services from a shell.

     dune exec bin/sintra_cli.exe -- structure --example 2
     dune exec bin/sintra_cli.exe -- abc -n 7 -t 2 --payloads 5 --crash 0,1
     dune exec bin/sintra_cli.exe -- trace -n 4 --payloads 2 --jsonl
     dune exec bin/sintra_cli.exe -- coin -n 4 -t 1 --flips 16
     dune exec bin/sintra_cli.exe -- notary --documents "idea one,idea two"
     dune exec bin/sintra_cli.exe -- bench-check BENCH_M1.json
     dune exec bin/sintra_cli.exe -- run faults --quick
*)

module AS = Adversary_structure

open Cmdliner

(* ---------- span timeline ------------------------------------------- *)

(* Build an active observability instance whose tracer reads the
   simulator's virtual clock.  The sim must be created with [obs]
   first; the tracer closes over it afterwards via [set_tracer]. *)
let attach_tracer obs sim =
  let tr = Obs_trace.create ~now:(fun () -> Sim.clock sim) () in
  Obs.set_tracer obs tr;
  tr

let print_span_timeline ?(limit = 60) (tr : Obs_trace.t) =
  let records = Obs_trace.records tr in
  let st = Obs_trace.stats tr in
  Printf.printf
    "span timeline: %d spans begun, %d ended, %d points, %d dropped by the ring\n"
    st.Obs_trace.spans_started st.Obs_trace.spans_ended
    st.Obs_trace.points_recorded st.Obs_trace.records_dropped;
  Printf.printf "  %9s %7s  %-4s %s\n" "start" "dur" "who" "layer/event";
  List.iteri
    (fun i (r : Obs_trace.record) ->
      if i < limit then begin
        let indent = String.make (min 16 (2 * r.Obs_trace.depth)) ' ' in
        let who =
          if r.Obs_trace.party >= 0 then Printf.sprintf "p%d" r.Obs_trace.party
          else "--"
        in
        let dur =
          if r.Obs_trace.id = 0 then "      ."
          else if Float.is_nan r.Obs_trace.t_end then "   open"
          else Printf.sprintf "%7.1f" (r.Obs_trace.t_end -. r.Obs_trace.t_start)
        in
        Printf.printf "  %9.1f %s  %-4s %s%s/%s%s%s\n" r.Obs_trace.t_start dur
          who indent r.Obs_trace.layer r.Obs_trace.name
          (if r.Obs_trace.tag = "" then ""
           else " [" ^ r.Obs_trace.tag ^ "]")
          (if r.Obs_trace.detail = "" then "" else "  " ^ r.Obs_trace.detail)
      end)
    records;
  let total = List.length records in
  if total > limit then
    Printf.printf "  ... and %d more records (raise --limit or use --jsonl)\n"
      (total - limit)

(* ---------- shared arguments --------------------------------------- *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of servers.")

let t_arg =
  Arg.(
    value & opt int 1
    & info [ "t" ] ~docv:"T" ~doc:"Corruption threshold (needs n > 3t).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let example_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "example" ] ~docv:"1|2"
        ~doc:"Use the paper's Example 1 (9 servers) or Example 2 (16 servers) \
              generalized adversary structure instead of a threshold.")

let crash_arg =
  Arg.(
    value & opt string ""
    & info [ "crash" ] ~docv:"IDS"
        ~doc:"Comma-separated server ids to crash before the run.")

let parse_crash s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

let structure_of ~n ~t = function
  | Some 1 -> Canonical_structures.example1 ()
  | Some 2 -> Canonical_structures.example2 ()
  | Some k -> invalid_arg (Printf.sprintf "unknown example %d" k)
  | None -> AS.threshold ~n ~t

(* ---------- structure: inspect an adversary structure --------------- *)

let structure_cmd =
  let run n t example =
    let s = structure_of ~n ~t example in
    Printf.printf "parties:                  %d\n" (AS.n s);
    Printf.printf "Q3 condition:             %b\n" (AS.satisfies_q3 s);
    Printf.printf "Q2 condition:             %b\n" (AS.satisfies_q2 s);
    Printf.printf "sharing compatible:       %b\n" (AS.check_sharing_compatible s);
    Printf.printf "uniform tolerance:        any %d servers\n"
      (AS.max_uniform_tolerance s);
    let maxes = AS.maximal_adversary_sets s in
    Printf.printf "maximal corruptible sets: %d\n" (List.length maxes);
    List.iteri
      (fun i m ->
        if i < 12 then Printf.printf "  %s (%d servers)\n" (Pset.to_string m) (Pset.card m))
      maxes;
    if List.length maxes > 12 then
      Printf.printf "  ... and %d more\n" (List.length maxes - 12)
  in
  Cmd.v (Cmd.info "structure" ~doc:"Inspect an adversary structure.")
    Term.(const run $ n_arg $ t_arg $ example_arg)

(* ---------- abc: run atomic broadcast -------------------------------- *)

(* The run [abc] and [trace] share, on the campaign's ABC workload: deal
   the keyring, create the simulator over [obs] ([setup] runs on it
   before deployment), submit [payloads] round-robin from the servers
   outside [crashed], crash those and run until the others have
   delivered them all.  A stall is reported on [stall_out].  Returns
   the simulator, the workload, the honest servers and what [setup]
   returned. *)
let run_abc ~structure ~seed ~payloads ~obs ~tag ?link ?(crashed = []) ~setup
    stall_out =
  let n = AS.n structure in
  let keyring = Keyring.deal ~rsa_bits:192 ~seed:99 structure in
  let sim =
    Sim.create ~policy:Sim.Random_order
      ~size:(Link.frame_size (Abc.msg_size keyring)) ~obs ~n ~seed ()
  in
  let set_up = setup sim in
  let honest = Pset.diff (Pset.full n) (Pset.of_list crashed) in
  let w =
    Campaign.abc_workload ~sim ~keyring ~tag ?link ~honest
      (List.init payloads (Printf.sprintf "payload-%02d"))
  in
  List.iter (Sim.crash sim) crashed;
  List.iter
    (fun v -> Printf.fprintf stall_out "!! %s\n" (Oracle.violation_to_string v))
    (Sweep.run_sim sim ~max_steps:2_000_000 ~until:w.Campaign.finished);
  (sim, w, honest, set_up)

let abc_cmd =
  let payloads_arg =
    Arg.(
      value & opt int 3
      & info [ "payloads" ] ~docv:"K" ~doc:"Number of payloads to order.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the first 40 simulator events (message-level trace) \
                and the protocol span timeline.")
  in
  let link_arg =
    Arg.(
      value & flag
      & info [ "link" ]
          ~doc:"Run over the reliable link layer (per-peer ack/retransmit \
                channels with the default policy).")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Drop each delivery attempt with probability P (lossy \
                chaos; combine with --link to see retransmission restore \
                liveness).")
  in
  let run n t example seed payloads crash trace link drop =
    let structure = structure_of ~n ~t example in
    let n = AS.n structure in
    (* the link layer's counters live in the obs registry, so reporting
       them needs an active handle *)
    let obs = if trace || link then Obs.create () else Obs.noop in
    let crashed = parse_crash crash in
    let sim, w, honest, span_tracer =
      run_abc ~structure ~seed ~payloads ~obs ~tag:"cli"
        ?link:(if link then Some Link.default_policy else None)
        ~crashed stdout ~setup:(fun sim ->
          if drop > 0.0 then Sim.set_chaos sim (Some (Sweep.lossy drop));
          if trace then begin
            let tr = attach_tracer obs sim in
            Sim.enable_trace sim
              ~summarize:(Link.frame_summary Abc.msg_summary);
            Some tr
          end
          else None)
    in
    let m = Sim.metrics sim in
    (if trace then begin
       print_endline "trace (first 40 events):";
       List.iteri
         (fun i ev ->
           if i < 40 then
             match ev with
             | Sim.Delivered { at; src; dst; summary } ->
               Printf.printf "  %8.1f  %d -> %d  %s\n" at src dst summary
             | Sim.Dropped { at; src; dst; reason } ->
               Printf.printf "  %8.1f  %d -> %d  (dropped: %s)\n" at src dst
                 (Sim.drop_reason_label reason)
             | Sim.Timer_fired { at; party } ->
               Printf.printf "  %8.1f  timer at %d\n" at party)
         (Sim.trace sim)
     end);
    Option.iter (fun tr -> print_span_timeline tr) span_tracer;
    Printf.printf "servers: %d (crashed: %s)\n" n
      (if crashed = [] then "none" else String.concat "," (List.map string_of_int crashed));
    Printf.printf "network: %d messages, %d kB, virtual time %.0f\n"
      m.Metrics.messages_sent (m.Metrics.bytes_sent / 1024) (Sim.clock sim);
    if drop > 0.0 then
      Printf.printf "chaos: %d deliveries dropped (rate %.2f)\n"
        m.Metrics.chaos_drops drop;
    if link then begin
      let snap = Obs.snapshot obs in
      let v name =
        Option.value ~default:0
          (Obs_registry.counter_value snap ~labels:[ ("layer", "link") ] name)
      in
      Printf.printf
        "link: %d retransmissions, %d duplicates suppressed, %d ack bytes\n"
        (v "link_retransmit")
        (v "link_dup_suppressed")
        (v "link_ack_bytes")
    end;
    match Pset.to_list honest with
    | h :: _ ->
      Printf.printf "total order at server %d:\n" h;
      List.iteri
        (fun k p -> Printf.printf "  %d. %s\n" k p)
        (List.rev w.Campaign.logs.(h));
      Printf.printf "all honest servers agree on the order: %b\n"
        (Oracle.count_safety (w.Campaign.check ()) = 0)
    | [] -> ()
  in
  Cmd.v
    (Cmd.info "abc" ~doc:"Run atomic broadcast on the simulated network.")
    Term.(
      const run $ n_arg $ t_arg $ example_arg $ seed_arg $ payloads_arg
      $ crash_arg $ trace_arg $ link_arg $ drop_arg)

(* ---------- trace: span-level protocol trace ------------------------- *)

let trace_cmd =
  let payloads_arg =
    Arg.(
      value & opt int 2
      & info [ "payloads" ] ~docv:"K" ~doc:"Number of payloads to order.")
  in
  let jsonl_arg =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:"Emit the span records as JSON lines instead of the pretty \
                timeline.")
  in
  let limit_arg =
    Arg.(
      value & opt int 80
      & info [ "limit" ] ~docv:"N"
          ~doc:"Maximum records shown by the pretty timeline.")
  in
  let run n t example seed payloads jsonl limit =
    let obs = Obs.create () in
    let _, _, _, tr =
      run_abc ~structure:(structure_of ~n ~t example) ~seed ~payloads
        ~obs ~tag:"trace" stderr ~setup:(attach_tracer obs)
    in
    if jsonl then print_string (Obs_trace.to_jsonl tr)
    else print_span_timeline ~limit tr
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run atomic broadcast and print the span-level protocol trace.")
    Term.(
      const run $ n_arg $ t_arg $ example_arg $ seed_arg $ payloads_arg
      $ jsonl_arg $ limit_arg)

(* ---------- bench-check: validate machine-readable artifacts --------- *)

(* Checks the report envelope, then every limited gate row against its
   limit: the campaign table's one check, shared with [sintra run]. *)
let bench_check_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Reports to validate (default: every BENCH_/FAULTS_/RECOV_/\
                EPOCH_*.json file in the current directory).")
  in
  let run files =
    let files =
      match files with
      | [] ->
        Sys.readdir "." |> Array.to_list
        |> List.filter Campaign_table.is_artifact
        |> List.sort compare
      | fs -> fs
    in
    if files = [] then begin
      prerr_endline "bench-check: no artifact files found";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun path ->
        match Campaign_table.check_file path with
        | Ok msg -> Printf.printf "%s: OK (%s)\n" path msg
        | Error e ->
          failed := true;
          Printf.eprintf "%s: FAILED (%s)\n" path e)
      files;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Validate machine-readable reports (bench and campaign \
          artifacts): the one layout (the fixed top-level members, all \
          of them in a campaign, one per_run row per run) and its gate \
          rows — finite values, a known direction, unique names, a finite \
          limit only on a lower/higher row, the kind's acceptance rows \
          present and limited — and then every limited row against its \
          limit.  Each pass condition (no safety violation, no undecided \
          liveness-gating run, bounded delivered logs, a stable service \
          key, every request certified, monotone throughput progress, the \
          DLEQ batch speedup, ...) is a gate row its producer limited.")
    Term.(const run $ files_arg)

(* ---------- run: the seed-sweep campaigns ------------------------------ *)

let run_cmd =
  let campaign_arg =
    let names =
      List.map (fun c -> (c.Campaign_table.name, c)) Campaign_table.campaigns
    in
    Arg.(
      required
      & pos 0 (some (enum names)) None
      & info [] ~docv:"CAMPAIGN"
          ~doc:
            (Printf.sprintf "The campaign to run: %s."
               (String.concat ", " (List.map fst names))))
  in
  let seeds_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Seeds per cell (default: the campaign's preset).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"The campaign's CI smoke preset.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"ID"
          ~doc:"Report id: the campaign writes <PREFIX>_<ID>.json.")
  in
  let drop_arg =
    Arg.(
      value & opt (some float) None
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Override the campaign's chaos drop probability.")
  in
  let run (c : Campaign_table.campaign) n t seed seeds quick out drop =
    let preset = if quick then c.quick else c.full in
    let core =
      { Sweep.n; t; seed_base = seed;
        seeds = Option.value seeds ~default:preset.seeds;
        size = preset.size; drop; max_steps = None }
    in
    let path, check =
      Campaign_table.run c core
        ~id:(Option.value out ~default:c.default_id)
        ~progress:(fun (k, total) ->
          Printf.eprintf "\r[%s] %d/%d runs%!" c.name k total;
          if k = total then prerr_newline ())
    in
    match check with
    | Ok msg -> Printf.printf "[%s] wrote %s: OK (%s)\n" c.name path msg
    | Error e ->
      Printf.eprintf "[%s] wrote %s: FAILED (%s)\n" c.name path e;
      exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a seed-sweep campaign — faults (chaos policies x corruption \
          mixes over ABBA and ABC), link (30% drop with the reliable link \
          on, liveness-gating), recov (crash-rejoin / partition-heal via \
          certified state transfer), epoch (online proactive refresh and \
          replica replacement) or svc (closed-loop clients through the \
          service pipeline) — print its summary, write its artifact and \
          check it with bench-check's one check.  Every run is recorded by \
          the flight recorder: the artifact carries its anomaly counts, \
          the trace windows around stalls, safety trips, retransmit \
          storms, back-pressure peaks and state transfers, and its gate \
          rows.  Exits non-zero on an invalid \
          artifact or on any gate row past its limit (a safety \
          violation, an undecided gating run, a missed request, ...).")
    Term.(
      const run $ campaign_arg $ n_arg $ t_arg $ seed_arg $ seeds_arg
      $ quick_arg $ out_arg $ drop_arg)

(* ---------- compare: regression gate over two artifacts -------------- *)

let compare_cmd =
  let a_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline report (any BENCH_/FAULTS_/RECOV_/EPOCH_ json \
                file).")
  in
  let b_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"CANDIDATE"
          ~doc:"Candidate report of the same kind.")
  in
  let rel_arg =
    Arg.(
      value & opt float 0.10
      & info [ "rel" ] ~docv:"R"
          ~doc:"Relative worsening tolerated by thresholded metrics \
                (default 0.10).")
  in
  let abs_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "abs" ] ~docv:"E"
          ~doc:"Absolute tolerance floor (default 1e-9: byte-stable reruns \
                compare equal).")
  in
  let run a b rel abs_eps =
    match
      Compare.compare_files ~thresholds:{ Compare.rel; abs_eps } a b
    with
    | Error e ->
      Printf.eprintf "compare: %s\n" e;
      exit 2
    | Ok report ->
      Compare.pp_report Format.std_formatter report;
      if not (Compare.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff the gate rows of two reports of the same kind and \
          classify every delta as improved, regressed or neutral. Strict \
          rows (safety violations, gating-liveness violations, per-cell \
          decided counts, stall anomalies) regress on any worsening; thresholded rows tolerate \
          --rel/--abs; info rows (wall time, raw counters) are only shown. \
          Exits 1 on regression, 2 on structural mismatch (different kind \
          or run count, a row on one side only) — wiring this against a \
          checked-in baseline turns it into a CI regression gate.")
    Term.(const run $ a_arg $ b_arg $ rel_arg $ abs_arg)

(* ---------- search: adversarial schedule search ---------------------- *)

let search_cmd =
  let objective_arg =
    let objectives =
      List.map
        (fun o -> (Schedule_search.objective_label o, o))
        Schedule_search.[ Decide_time; Buffer_peak ]
    in
    Arg.(
      value
      & opt (enum objectives) Schedule_search.Decide_time
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"What to maximise: decide-time (mean steps to completion, \
                stalls dominate) or buffer-peak (worst link send-buffer \
                depth; forces --link).")
  in
  let iters_arg =
    Arg.(
      value & opt int 40
      & info [ "iters" ] ~docv:"N" ~doc:"Hill-climb iterations.")
  in
  let eval_seeds_arg =
    Arg.(
      value & opt int 2
      & info [ "eval-seeds" ] ~docv:"K"
          ~doc:"Runs per candidate schedule evaluation.")
  in
  let protocol_arg =
    let protocols =
      List.map
        (fun p -> (Campaign.protocol_label p, p))
        Campaign.[ P_abba; P_abc ]
    in
    Arg.(
      value
      & opt (enum protocols) Campaign.P_abc
      & info [ "protocol" ] ~docv:"P" ~doc:"Protocol to attack (abba, abc).")
  in
  let payloads_arg =
    Arg.(
      value & opt int 2
      & info [ "payloads" ] ~docv:"K"
          ~doc:"Atomic-broadcast payloads per abc run.")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 60_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Per-run simulator step bound.")
  in
  let link_arg =
    Arg.(
      value & flag
      & info [ "link" ] ~doc:"Evaluate over the reliable link layer.")
  in
  let out_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Archive the worst schedules as replayable \
                worst_<objective>_<rank>.json fixtures in DIR.")
  in
  let top_arg =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"M"
          ~doc:"How many worst schedules to archive (default 3).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No progress on stderr.")
  in
  let run n t seed objective iters eval_seeds protocol payloads max_steps link
      out_dir top quiet =
    let params =
      {
        Schedule_search.search_seed = seed;
        iters;
        core =
          { Schedule_search.default_params.core with
            Sweep.seeds = eval_seeds; n; t; size = payloads;
            max_steps = Some max_steps };
        protocol;
        link;
      }
    in
    let outcome =
      Schedule_search.search
        ~progress:(fun (k, budget, score) ->
          if not quiet then
            Printf.eprintf "\r[search] eval %d/%d  score %.0f    %!" k budget
              score)
        ~params ~objective ()
    in
    if not quiet then Printf.eprintf "\n%!";
    let best = outcome.Schedule_search.o_best in
    Printf.printf
      "search(%s): %d evaluations, best score %.0f (%d/%d decided, %d safety \
       violations)\n"
      (Schedule_search.objective_label objective)
      outcome.Schedule_search.o_evaluations best.Schedule_search.e_score
      best.Schedule_search.e_decided best.Schedule_search.e_runs
      best.Schedule_search.e_safety;
    Format.printf "  timeline: %a@." Sweep.pp_timeline
      best.Schedule_search.e_timeline;
    (match out_dir with
    | None -> ()
    | Some dir ->
      let paths =
        Schedule_search.write_fixtures ~dir ~params ~objective outcome ~top
      in
      List.iter (fun p -> Printf.printf "[search] wrote %s\n" p) paths);
    (* an adversarial *schedule* must never cost safety; if the search
       found one that does, that is a protocol bug worth failing loudly *)
    let total_safety =
      List.fold_left
        (fun a e -> a + e.Schedule_search.e_safety)
        0 outcome.Schedule_search.o_archive
    in
    if total_safety > 0 then begin
      Printf.eprintf "search: %d safety violations during search\n"
        total_safety;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Adversarial schedule search: hill-climb over the chaos step of \
          a fault timeline (drop/delay/duplication/reordering rates plus a \
          healing partition window), maximising steps-to-decide or link \
          buffer peaks.  Deterministic in --seed.  With --out-dir, \
          archives the worst schedules as replayable sintra-schedule/3 \
          fixtures (the campaign, cell and timeline plus its \
          evaluation); exits non-zero if any evaluated schedule cost \
          safety.")
    Term.(
      const run $ n_arg $ t_arg $ seed_arg $ objective_arg $ iters_arg
      $ eval_seeds_arg $ protocol_arg $ payloads_arg $ max_steps_arg
      $ link_arg $ out_dir_arg $ top_arg $ quiet_arg)

(* ---------- bench-num: the kernel benchmark ------------------------- *)

let bench_num_cmd =
  let out_arg =
    Arg.(
      value & opt string "BENCH_NUM.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the bench JSON.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Shorter timing loops (noisier numbers; for CI smoke runs).")
  in
  let run out quick = Bench_num.run ~out ~quick () in
  Cmd.v
    (Cmd.info "bench-num"
       ~doc:
         "Time every kernel: bignum arithmetic at 128/512/1024-bit \
          moduli, the DLEQ batch sweep, and the protocol kernels \
          (hashing, Schnorr, coin, TDH2, threshold RSA, the scheduler \
          step).")
    Term.(const run $ out_arg $ quick_arg)

(* ---------- coin: flip the distributed coin -------------------------- *)

let coin_cmd =
  let flips_arg =
    Arg.(value & opt int 8 & info [ "flips" ] ~docv:"K" ~doc:"Number of coins.")
  in
  let run n t example flips =
    let s = structure_of ~n ~t example in
    let kr = Keyring.deal ~rsa_bits:192 ~seed:7 s in
    let coin = kr.Keyring.coin in
    Printf.printf
      "threshold coin over %d servers; each value needs a qualified set of shares\n"
      (AS.n s);
    for k = 0 to flips - 1 do
      let name = Printf.sprintf "cli-coin-%d" k in
      let shares =
        List.init (AS.n s) (fun i -> (i, Coin.generate_share coin ~party:i ~name))
      in
      (* combine from the first qualified prefix *)
      let rec try_prefix avail used = function
        | [] -> None
        | (i, sh) :: rest ->
          let avail = Pset.add i avail in
          let used = (i, sh) :: used in
          (match Coin.combine coin ~name ~avail used () with
          | Some v -> Some (v, Pset.card avail)
          | None -> try_prefix avail used rest)
      in
      match try_prefix Pset.empty [] shares with
      | Some (v, k') -> Printf.printf "  %-14s = %d  (combined from %d shares)\n" name v k'
      | None -> Printf.printf "  %-14s : could not combine\n" name
    done
  in
  Cmd.v (Cmd.info "coin" ~doc:"Flip the unpredictable threshold coin.")
    Term.(const run $ n_arg $ t_arg $ example_arg $ flips_arg)

(* ---------- notary: register documents ------------------------------- *)

let notary_cmd =
  let docs_arg =
    Arg.(
      value
      & opt string "first document,second document"
      & info [ "documents" ] ~docv:"DOCS" ~doc:"Comma-separated documents.")
  in
  let run n t seed docs =
    let s = AS.threshold ~n ~t in
    let kr = Keyring.deal ~rsa_bits:192 ~seed:13 s in
    let sim = Sim.create ~n ~seed () in
    let _nodes =
      Service.deploy ~sim ~keyring:kr ~mode:Service.Confidential
        ~make_app:Notary.make_app ()
    in
    let client = Service.Client.create ~sim ~keyring:kr ~slot:n ~seed:3 () in
    List.iter
      (fun doc ->
        let result = ref None in
        Service.Client.request client ~mode:Service.Confidential
          (Notary.register_request ~document:doc) (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        match !result with
        | Some rc ->
          (match Notary.parse_registration rc.Service.rc_response with
          | Some (seq, digest) ->
            Printf.printf "registered %-28S seq=%d digest=%s...\n" doc seq
              (String.sub (Sha256.to_hex digest) 0 12)
          | None -> Printf.printf "registration of %S failed\n" doc)
        | None -> Printf.printf "request for %S did not complete\n" doc)
      (String.split_on_char ',' docs)
  in
  Cmd.v
    (Cmd.info "notary"
       ~doc:"Register documents with the confidential notary service.")
    Term.(const run $ n_arg $ t_arg $ seed_arg $ docs_arg)

(* ---------- ca: issue and look up certificates ----------------------- *)

let ca_cmd =
  let id_arg =
    Arg.(
      value & opt string "alice@example.com"
      & info [ "id" ] ~docv:"ID" ~doc:"Identity to certify.")
  in
  let pubkey_arg =
    Arg.(
      value & opt string "ed25519:AAAA"
      & info [ "pubkey" ] ~docv:"KEY" ~doc:"Public key to bind.")
  in
  let byzantine_arg =
    Arg.(
      value & flag
      & info [ "byzantine" ]
          ~doc:"Make one server forge denials for every request.")
  in
  let run n t seed id pubkey byzantine =
    let s = AS.threshold ~n ~t in
    let kr = Keyring.deal ~rsa_bits:192 ~seed:17 s in
    let sim = Sim.create ~n ~seed () in
    let _nodes =
      Service.deploy ~sim ~keyring:kr ~mode:Service.Plain ~make_app:Ca.make_app ()
    in
    if byzantine then begin
      let evil = n - 1 in
      Printf.printf "server %d forges denials for every request\n" evil;
      Byzantine.corrupt ~sim ~keyring:kr ~seed:evil ~set:(Pset.singleton evil)
        Byzantine.For_service.forged_denial
    end;
    let client = Service.Client.create ~sim ~keyring:kr ~slot:n ~seed:3 () in
    let call body =
      let result = ref None in
      Service.Client.request client ~mode:Service.Plain body (fun rc ->
          result := Some rc);
      Sim.run sim ~until:(fun () -> !result <> None);
      (Option.get !result).Service.rc_response
    in
    let response =
      call (Ca.issue_request ~id ~pubkey ~credentials:"cli!ok")
    in
    (match Ca.parse_certificate response with
    | Some (id', pk, serial) ->
      Printf.printf "certificate issued: id=%s pubkey=%s serial=%d\n" id' pk
        serial;
      Printf.printf
        "(threshold-signed under the CA's single public key; verify with the\n\
        \ service signature attached to the response)\n"
    | None -> print_endline "request denied");
    let lookup = call (Ca.lookup_request ~id) in
    match Ca.parse_certificate lookup with
    | Some (_, pk, serial) ->
      Printf.printf "lookup confirms: pubkey=%s serial=%d\n" pk serial
    | None -> print_endline "lookup found nothing"
  in
  Cmd.v
    (Cmd.info "ca" ~doc:"Issue a certificate from the replicated CA.")
    Term.(const run $ n_arg $ t_arg $ seed_arg $ id_arg $ pubkey_arg $ byzantine_arg)

(* ---------- main ------------------------------------------------------ *)

let () =
  let doc = "Distributing trust on the Internet: SINTRA reproduction tools" in
  let info = Cmd.info "sintra" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ structure_cmd; abc_cmd; trace_cmd; bench_check_cmd; bench_num_cmd;
            run_cmd; compare_cmd; search_cmd; coin_cmd; notary_cmd; ca_cmd ]))
