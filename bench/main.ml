(* Benchmark / experiment harness: regenerates every table- and
   figure-level claim of the paper (see DESIGN.md section 3 and
   EXPERIMENTS.md for the paper-vs-measured record).  Each experiment
   prints its table and states its claim as limited gate rows of its
   BENCH_<id>.json ([claim]; [Report.acceptance] lists them), which
   bench-check holds to their limits.  Every ABC run goes through the
   faults campaign's workload and oracles ([run_abc]).

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- F1 R1    -- run selected experiments
     dune exec bench/main.exe -- --small F1 R1   -- R1, M1, TPUT shrunk

   Experiments:
     F1  Figure 1: randomized ABC vs. CL99-style deterministic baseline
         under benign and adversarial scheduling (liveness & safety)
     F2  Figure 1, Rampart row: a dynamic-membership baseline loses
         safety under the delay adversary
     E1  Example 1 (9 servers, 4 classes): full corruption sweep
     E2  Example 2 (16 servers, site x OS grid): site+OS corruptions,
         comparison against the best threshold structure
     G1  Ablation: protocol cost over a generalized structure vs. a
         plain threshold of the same size
     R1  ABBA terminates in an expected constant number of rounds
     R2  Atomic broadcast delivery: rounds, messages, virtual latency
     M1  Message complexity per protocol layer as n grows
     O1  Optimistic/deterministic trade-off: fast path vs. attack
     O2  The implemented optimistic atomic broadcast (Section 6):
         sequencer fast path vs. full agreement, and crash recovery
     S1  CA / directory service end-to-end with a Byzantine server
     S2  Notary confidentiality: SC-ABC vs. plain ABC front-running
     TPUT  Batching x pipelining throughput sweep

   The kernel timings (the paper's practicality claim, §2.1: threshold
   crypto, hashing, bignum arithmetic and the scheduler step) are
   `sintra bench-num`, which writes BENCH_NUM.json.
*)

module AS = Adversary_structure

(* --small: shrink the sweeps of R1, M1 and TPUT so `make bench-smoke`
   runs in seconds.  Every experiment still writes its BENCH_<id>.json. *)
let small = ref false

let line = String.make 78 '-'

let header id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

let keyrings = Hashtbl.create 8

let keyring (structure : AS.t) : Keyring.t =
  let key = (AS.n structure, AS.threshold_of structure) in
  match Hashtbl.find_opt keyrings key with
  | Some kr -> kr
  | None ->
    let kr = Keyring.deal ~rsa_bits:192 ~seed:4242 structure in
    Hashtbl.add keyrings key kr;
    kr

(* ------------------------------------------------------------------ *)
(* Shared runs                                                         *)
(* ------------------------------------------------------------------ *)

(* What one ordering run found: the oracles' violations, including a
   stall, and its cost. *)
type run = {
  violations : Oracle.violation list;
  messages : int;
  bytes : int;
  virtual_time : float;
  steps : int;
  rounds : int;  (* the highest ABC round or PBFT-lite view reached *)
  progress : (int * int) list;
      (* (sim steps so far, payloads delivered at party 0), oldest first *)
}

let live r = Oracle.count_liveness r.violations = 0
let safe r = Oracle.count_safety r.violations = 0
let ok r = live r && safe r
let count p xs = float_of_int (List.length (List.filter p xs))
let flag b = if b then 1.0 else 0.0

(* One claim of the experiment, as a limited gate row. *)
let claim better metric ~limit value =
  Bench_out.gate [ Report.must better metric ~limit value ]

let outcome sim violations ~rounds ~progress =
  let m = Sim.metrics sim in
  { violations;
    messages = m.Metrics.messages_sent;
    bytes = m.Metrics.bytes_sent;
    virtual_time = Sim.clock sim;
    steps = Sim.steps sim;
    rounds;
    progress }

(* ABC through the campaign's workload: the parties outside the
   structure's [crashed] set submit the payloads round-robin, then the
   run goes until every honest log is full or the step bound. *)
let run_abc ?(policy = Sim.Random_order) ?(crashed = Pset.empty) ?abc_policy
    ?(max_steps = 400_000) ?(tag = "bench") ~structure ~seed payloads =
  let kr = keyring structure in
  let n = AS.n structure in
  let sim =
    Sim.create ~policy ~size:(Link.frame_size (Abc.msg_size kr))
      ~obs:(Bench_out.obs ()) ~n ~seed ()
  in
  let progress = ref [] in
  let w =
    Campaign.abc_workload ?policy:abc_policy ~sim ~keyring:kr
      ~tag:(Printf.sprintf "%s-%d" tag seed)
      ~honest:(Pset.diff (Pset.full n) crashed)
      ~on_deliver:(fun p k ->
        if p = 0 then progress := (Sim.steps sim, k) :: !progress)
      payloads
  in
  Pset.iter (Sim.crash sim) crashed;
  let stall = Sweep.run_sim sim ~max_steps ~until:w.Campaign.finished in
  outcome sim
    (w.Campaign.check () @ stall)
    ~rounds:(Array.fold_left (fun acc a -> max acc (Abc.current_round a)) 0 w.Campaign.nodes)
    ~progress:(List.rev !progress)

(* The CL99-style baseline under the same oracles.  Under
   [Delay_victims] the adversary follows the leader: before every step
   it delays the leader of each party's current view. *)
let run_pbft ?(policy = Sim.Latency_order) ?(max_steps = 100_000) ~n ~f ~seed
    payloads =
  let sim =
    Sim.create ~policy ~size:Pbft_lite.msg_size ~obs:(Bench_out.obs ()) ~n
      ~seed ()
  in
  let logs = Array.make n [] in
  let nodes =
    Baseline_stack.deploy ~sim ~f ~timeout:500.0
      ~deliver:(fun me p -> logs.(me) <- p :: logs.(me))
      ()
  in
  List.iteri (fun i p -> Pbft_lite.submit nodes.(i mod n) p) payloads;
  let leaders () =
    Array.fold_left
      (fun acc node -> Pset.add (Pbft_lite.current_view node mod n) acc)
      Pset.empty nodes
  in
  let expected = List.length payloads in
  let stall =
    Sweep.run_sim sim ~max_steps ~until:(fun () ->
        (match policy with
        | Sim.Delay_victims _ ->
          Sim.set_policy sim (Sim.Delay_victims (leaders ()))
        | Sim.Fifo | Sim.Random_order | Sim.Latency_order -> ());
        Array.for_all (fun l -> List.length l >= expected) logs)
  in
  outcome sim
    (Oracle.check_abc ~honest:(Pset.full n) ~expected (Array.map List.rev logs)
    @ stall)
    ~rounds:(Array.fold_left (fun acc a -> max acc (Pbft_lite.current_view a)) 0 nodes)
    ~progress:[]

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 reproduction                                           *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1" "Figure 1: systems for secure state machine replication";
  print_endline
    "Measured rows (n=4, t=1; 10 seeds each; payload must reach all replicas):";
  let row = Printf.printf "%-22s %-8s %-8s %-5s %-18s %-18s %s\n" in
  row "system" "timing" "servers" "BA?" "benign: live/safe" "attack: live/safe"
    "mechanism";
  let system name ba benign attack mechanism =
    let live_safe rs =
      Printf.sprintf "%b / %b" (List.for_all live rs) (List.for_all safe rs)
    in
    row name "async" "static" ba (live_safe benign) (live_safe attack) mechanism
  in
  let th = AS.threshold ~n:4 ~t:1 in
  let seeds = List.init 10 (fun i -> 900 + i) in
  let attack = Sim.Delay_victims (Pset.singleton 0) in
  let abc policy =
    List.map (fun seed -> run_abc ~policy ~structure:th ~seed [ "req" ]) seeds
  in
  let ours_benign = abc Sim.Latency_order in
  let ours_attack = abc attack in
  system "this work (SINTRA)" "yes" ours_benign ours_attack
    "cryptographic coin, Q3 adversaries";
  let pb_benign =
    List.map (fun seed -> run_pbft ~n:4 ~f:1 ~seed [ "req" ]) seeds
  in
  let pb_attack =
    List.map
      (fun seed ->
        run_pbft ~policy:attack ~max_steps:6_000 ~n:4 ~f:1 ~seed [ "req" ])
      seeds
  in
  system "CL99 (PBFT-lite)" "no" pb_benign pb_attack
    "timeout failure detector for liveness";
  let all_seeds = float_of_int (List.length seeds) in
  claim Higher "abc benign live and safe seeds" ~limit:all_seeds
    (count ok ours_benign);
  claim Higher "abc attack live and safe seeds" ~limit:all_seeds
    (count ok ours_attack);
  claim Lower "pbft attack live seeds" ~limit:0.0 (count live pb_attack);
  claim Lower "pbft safety violations" ~limit:0.0
    (float_of_int
       (Sweep.sum (fun r -> Oracle.count_safety r.violations) (pb_benign @ pb_attack)));
  print_endline
    "\nPaper's Figure 1 rows (qualitative, for reference): RB94 async/static\n\
     (crash only), Rampart async/dynamic (FD for liveness AND safety), Total\n\
     prob-async/static, CL99 async/static (FD for liveness), Fleet (no state\n\
     machine), SecureRing & DGG00 (Byzantine FD), this paper: BA via\n\
     cryptographic coin, tolerates general Q3 adversaries."

(* ------------------------------------------------------------------ *)
(* F2: the Rampart row of Figure 1                                     *)
(* ------------------------------------------------------------------ *)

let f2 () =
  header "F2" "Figure 1, Rampart row: dynamic membership loses SAFETY";
  (* benign: works *)
  let sim =
    Sim.create ~policy:Sim.Latency_order ~size:Membership_abc.msg_size
      ~obs:(Bench_out.obs ()) ~n:4 ~seed:41 ()
  in
  let nodes, logs = Baseline_stack.deploy_membership ~sim () in
  Membership_abc.submit nodes.(1) "benign-payload";
  Sim.run sim ~until:(fun () -> Array.for_all (fun l -> l <> []) logs);
  Printf.printf "benign network:   delivered everywhere = %b, view = %d (%d msgs)\n"
    (Array.for_all (fun l -> l = [ "benign-payload" ]) logs)
    (Membership_abc.current_view nodes.(0))
    (Sim.metrics sim).Metrics.messages_sent;
  (* attack: delay honest members 0 and 3 until eviction; the Byzantine
     member 1 then dominates the shrunken view and equivocates (the
     harness and attacker are Baseline_stack's, shared with
     test_membership.ml) *)
  let sim =
    Sim.create ~policy:(Sim.Delay_victims (Pset.of_list [ 0; 3 ]))
      ~size:Membership_abc.msg_size ~obs:(Bench_out.obs ()) ~n:4 ~seed:42 ()
  in
  let nodes, logs =
    Baseline_stack.deploy_membership ~sim ~timeout:300.0 ()
  in
  Baseline_stack.rampart_attack ~sim nodes;
  Membership_abc.submit nodes.(2) "victim-payload";
  (try Sim.run sim ~max_steps:8_000 with Sim.Out_of_steps _ -> ());
  let shrunk = Pset.card (Membership_abc.members nodes.(2)) in
  let equiv_delivered = List.mem "evil-A" logs.(2) in
  Printf.printf
    "delay adversary:  view shrank to %d members; equivocated payload\n\
    \                  delivered at an honest member = %b  => SAFETY VIOLATED\n"
    shrunk equiv_delivered;
  claim Higher "equivocated payload delivered" ~limit:1.0
    (flag equiv_delivered);
  print_endline
    "(the paper, Section 2.3: a membership protocol \"easily falls prey to an\n\
    \ attacker that is able to delay honest servers just long enough until\n\
    \ corrupted servers hold the majority in the group\"; the static-group\n\
    \ randomized stack under the same adversary keeps safety AND liveness, F1)"

(* ------------------------------------------------------------------ *)
(* E1 / E2: generalized adversary structure sweeps                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "Example 1: 9 servers, classes a(4) b(2) c(2) d(1)";
  let s1 = Canonical_structures.example1 () in
  let maxes = AS.maximal_adversary_sets s1 in
  Printf.printf "Q3 condition: %b; sharing compatible: %b; |A*| = %d\n"
    (AS.satisfies_q3 s1)
    (AS.check_sharing_compatible s1)
    (List.length maxes);
  let runs =
    List.mapi
      (fun idx bad ->
        let r =
          run_abc ~structure:s1 ~seed:(7000 + idx) ~crashed:bad [ "p1"; "p2" ]
        in
        if not (ok r) then
          Printf.printf "  FAILED pattern %s: live=%b safe=%b\n"
            (Pset.to_string bad) (live r) (safe r);
        r)
      maxes
  in
  let ok = count ok runs in
  Printf.printf
    "crash sweep over every maximal corruptible set: %.0f/%d patterns live & safe\n"
    ok (List.length maxes);
  (* boundary: a qualified (non-corruptible) set of 3 servers *)
  let beyond = Pset.of_list [ 0; 4; 6 ] in
  let r =
    run_abc ~structure:s1 ~seed:7999 ~crashed:beyond ~max_steps:60_000 [ "p1" ]
  in
  Printf.printf
    "beyond the structure (crash qualified set %s): live=%b (expected false), safe=%b\n"
    (Pset.to_string beyond) (live r) (safe r);
  Printf.printf
    "threshold comparison: best uniform tolerance of A1 = %d servers;\n\
     A1 additionally tolerates the whole class a (4 servers at once)\n"
    (AS.max_uniform_tolerance s1);
  claim Higher "maximal sets live and safe"
    ~limit:(float_of_int (List.length maxes)) ok;
  claim Lower "beyond-structure run live" ~limit:0.0 (flag (live r))

let e2 () =
  header "E2" "Example 2: 16 servers, 4 sites x 4 operating systems";
  let s2 = Canonical_structures.example2 () in
  Printf.printf "Q3 condition: %b; sharing compatible: %b; |A*| = %d\n"
    (AS.satisfies_q3 s2)
    (AS.check_sharing_compatible s2)
    (List.length (AS.maximal_adversary_sets s2));
  let runs =
    List.concat_map
      (fun row ->
        List.map
          (fun col ->
            let r =
              run_abc ~structure:s2 ~seed:(8000 + (4 * row) + col)
                ~crashed:(Canonical_structures.example2_site_plus_os ~row ~col)
                [ "p" ]
            in
            if not (ok r) then
              Printf.printf "  FAILED site %d + OS %d: live=%b safe=%b\n" row
                col (live r) (safe r);
            r)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let ok = count ok runs in
  Printf.printf
    "site+OS sweep (7 of 16 servers down, all 16 patterns): %.0f/%d live & safe\n"
    ok (List.length runs);
  (* the best threshold structure on 16 servers, against the same pattern *)
  let th = AS.threshold ~n:16 ~t:5 in
  let bad = Canonical_structures.example2_site_plus_os ~row:0 ~col:0 in
  let corruptible = AS.is_corruptible th bad in
  Printf.printf
    "any threshold structure on 16 servers satisfies Q3 only up to t = 5:\n\
    \  q3(t=5) = %b, q3(t=6) = %b; the 7-server pattern is NOT corruptible at t=5: %b\n"
    (AS.satisfies_q3 th)
    (AS.satisfies_q3 (AS.threshold ~n:16 ~t:6))
    (not corruptible);
  (* demonstrate the threshold deployment actually stalls on the pattern *)
  let r =
    run_abc ~structure:th ~seed:8100 ~crashed:bad ~max_steps:120_000 [ "p" ]
  in
  Printf.printf
    "t=5 threshold deployment under the same 7-server crash: live=%b (expected false), safe=%b\n"
    (live r) (safe r);
  claim Higher "site+OS patterns live and safe"
    ~limit:(float_of_int (List.length runs)) ok;
  claim Lower "7-server pattern corruptible at t=5" ~limit:0.0
    (flag corruptible);
  claim Lower "t=5 threshold run live" ~limit:0.0 (flag (live r))

(* ------------------------------------------------------------------ *)
(* G1: cost of generalized adversary structures                        *)
(* ------------------------------------------------------------------ *)

let g1 () =
  header "G1"
    "Overhead of generalized adversary structures (ablation, n = 9)";
  Printf.printf "%-28s %-10s %-12s %-12s\n" "structure" "msgs" "kB"
    "virt. time";
  let runs =
    List.map
      (fun (name, structure) ->
        let r = run_abc ~structure ~seed:55 [ "g1-a"; "g1-b" ] in
        Printf.printf "%-28s %-10d %-12d %-12.0f%s\n" name r.messages
          (r.bytes / 1024) r.virtual_time
          (if ok r then "" else "  [FAILED]");
        r)
      [ ("threshold t=2 (9 servers)", AS.threshold ~n:9 ~t:2);
        ("example 1 (9 servers)", Canonical_structures.example1 ()) ]
  in
  claim Higher "structures live and safe" ~limit:2.0
    (count ok runs);
  print_endline
    "(same protocol code; the generalized structure evaluates monotone\n\
    \ formulas instead of counting, and its LSSS has more leaves than plain\n\
    \ Shamir -- message counts are similar, certificate and share payloads\n\
    \ grow with the number of formula leaves)"

(* ------------------------------------------------------------------ *)
(* R1: ABBA expected constant rounds                                   *)
(* ------------------------------------------------------------------ *)

let r1 () =
  header "R1" "ABBA: expected constant number of rounds";
  let n_seeds = if !small then 4 else 20 in
  Printf.printf "%-6s %-10s %-10s %-10s %-12s (%d seeds, mixed inputs, random scheduling)\n"
    "n" "mean rds" "max rds" "agree" "mean msgs" n_seeds;
  let violations = ref 0 in
  List.iter
    (fun (n, t) ->
      let structure = AS.threshold ~n ~t in
      let kr = keyring structure in
      let rounds = ref [] and msgs = ref [] and violated = ref 0 in
      for seed = 1 to n_seeds do
        let sim =
          Sim.create ~policy:Sim.Random_order ~size:(Link.frame_size (Abba.msg_size kr))
            ~obs:(Bench_out.obs ()) ~n ~seed:(seed * 31) ()
        in
        let decisions = Array.make n None in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr
            ~tag:(Printf.sprintf "r1-%d-%d" n seed)
            ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
        in
        let proposals = Array.init n (fun i -> i mod 2 = 0) in
        Array.iteri (fun i node -> Abba.propose node proposals.(i)) nodes;
        let stall =
          Sweep.run_sim sim ~max_steps:2_000_000 ~until:(fun () ->
              Array.for_all (fun d -> d <> None) decisions)
        in
        violated :=
          !violated
          + List.length
              (Oracle.check_abba ~honest:(Pset.full n) ~proposals decisions
              @ stall);
        let max_round =
          Array.fold_left (fun acc node -> max acc (Abba.current_round node)) 0 nodes
        in
        rounds := max_round :: !rounds;
        msgs := (Sim.metrics sim).Metrics.messages_sent :: !msgs
      done;
      let mean l =
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
      in
      Printf.printf "%-6d %-10.2f %-10d %-10b %-12.0f\n" n (mean !rounds)
        (List.fold_left max 0 !rounds)
        (!violated = 0) (mean !msgs);
      violations := !violations + !violated;
      (* Each round ends, with probability at least 1/2, with every
         honest party pre-voting one value in the next, where all of
         them decide (EXPERIMENTS.md, R1): at most 3 rounds expected. *)
      claim Lower (Printf.sprintf "n=%d mean rounds" n) ~limit:3.0 (mean !rounds))
    (if !small then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3); (13, 4) ]);
  claim Lower "abba oracle violations" ~limit:0.0 (float_of_int !violations)

(* ------------------------------------------------------------------ *)
(* R2: atomic broadcast liveness / cost per delivery                   *)
(* ------------------------------------------------------------------ *)

let r2 () =
  header "R2" "Atomic broadcast: rounds, messages and virtual latency";
  Printf.printf "%-4s %-10s %-8s %-14s %-14s %-12s\n" "n" "payloads" "rounds"
    "msgs/payload" "kB/payload" "virt. time";
  let runs =
    List.map
      (fun (n, t, k) ->
        let payloads = List.init k (fun i -> Printf.sprintf "payload-%02d" i) in
        let r =
          run_abc ~structure:(AS.threshold ~n ~t) ~seed:(100 * n) payloads
        in
        Printf.printf "%-4d %-10d %-8d %-14.0f %-14.1f %-12.0f%s\n" n k
          r.rounds
          (float_of_int r.messages /. float_of_int k)
          (float_of_int r.bytes /. 1024.0 /. float_of_int k)
          r.virtual_time
          (if ok r then "" else "  [FAILED]");
        r)
      [ (4, 1, 1); (4, 1, 4); (4, 1, 8); (7, 2, 4); (10, 3, 4) ]
  in
  claim Higher "rows delivered" ~limit:5.0 (count live runs);
  claim Lower "total-order violations" ~limit:0.0
    (float_of_int (Sweep.sum (fun r -> Oracle.count_safety r.violations) runs))

(* ------------------------------------------------------------------ *)
(* M1: message complexity per layer                                    *)
(* ------------------------------------------------------------------ *)

let m1 () =
  header "M1" "Message complexity per protocol layer (one instance each)";
  Printf.printf "%-6s %-12s %-12s %-12s %-12s %-12s\n" "n" "rbc" "cbc" "abba"
    "vba" "abc";
  List.iter
    (fun (n, t) ->
      let structure = AS.threshold ~n ~t in
      let kr = keyring structure in
      (* One instance until quiescence: [start sim finish] deploys and
         starts it, each party calling [finish] on delivery or decision;
         it completed when all n did. *)
      let quiesce ~size ~seed start =
        let sim =
          Sim.create ~size:(Link.frame_size size) ~obs:(Bench_out.obs ()) ~n
            ~seed ()
        in
        let finished = ref 0 in
        start sim (fun _ -> incr finished);
        Sim.run sim;
        let m = Sim.metrics sim in
        (m.Metrics.messages_sent, m.Metrics.bytes_sent, !finished = n)
      in
      let rbc =
        quiesce ~size:Rbc.msg_size ~seed:1 (fun sim finish ->
            Rbc.broadcast
              (Stack.deploy_rbc ~sim ~keyring:kr ~sender:0
                 ~deliver:(fun me _ -> finish me) ()).(0)
              "m")
      in
      let cbc =
        quiesce ~size:(Cbc.msg_size kr) ~seed:2 (fun sim finish ->
            Cbc.broadcast
              (Stack.deploy_cbc ~sim ~keyring:kr ~tag:"m1" ~sender:0
                 ~deliver:(fun me _ _ -> finish me) ()).(0)
              "m")
      in
      let abba =
        quiesce ~size:(Abba.msg_size kr) ~seed:3 (fun sim finish ->
            Array.iteri
              (fun i node -> Abba.propose node (i mod 2 = 0))
              (Stack.deploy_abba ~sim ~keyring:kr ~tag:"m1a"
                 ~on_decide:(fun me _ -> finish me) ()))
      in
      let vba =
        quiesce ~size:(Vba.msg_size kr) ~seed:4 (fun sim finish ->
            Array.iteri
              (fun i node -> Vba.propose node (Printf.sprintf "val-%d" i))
              (Stack.deploy_vba ~sim ~keyring:kr ~tag:"m1v"
                 ~on_decide:(fun me ~winner:_ _ -> finish me) ()))
      in
      let abc = run_abc ~structure ~seed:5 [ "m" ] in
      let layers =
        [ rbc; cbc; abba; vba; (abc.messages, abc.bytes, ok abc) ]
      in
      Printf.printf "%-6d" n;
      List.iter
        (fun (m, b, _) -> Printf.printf " %-12s" (Printf.sprintf "%d/%dk" m (b / 1024)))
        layers;
      print_newline ();
      claim Higher (Printf.sprintf "n=%d instances completed" n) ~limit:5.0
        (count (fun (_, _, c) -> c) layers))
    (if !small then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3); (13, 4) ]);
  print_endline "(cells are messages / kilobytes until quiescence)"

(* ------------------------------------------------------------------ *)
(* O2: the implemented optimistic protocol (Section 6 extension)       *)
(* ------------------------------------------------------------------ *)

let o2 () =
  header "O2"
    "Optimistic atomic broadcast: fast path cost vs. randomized fallback";
  Printf.printf "%-4s %-26s %-26s %-22s\n" "n" "fast path msgs/bytes"
    "full abc msgs/bytes" "sequencer crash: recovered?";
  let payloads = [ "o2-payload-a"; "o2-payload-b" ] in
  let rows =
    List.map
      (fun (n, t) ->
        let structure = AS.threshold ~n ~t in
        let kr = keyring structure in
        let run_opt ~crash_sequencer seed =
          let sim =
            Sim.create ~size:(Link.frame_size (Optimistic_abc.msg_size kr))
              ~obs:(Bench_out.obs ()) ~n ~seed ()
          in
          let logs = Array.make n [] in
          let nodes =
            Stack.deploy ~sim ~keyring:kr
              ~make:(fun me io ->
                Optimistic_abc.create ~io ~tag:"o2"
                  ~deliver:(fun p -> logs.(me) <- p :: logs.(me))
                  ())
              ~handle:Optimistic_abc.handle ~layer:"opt-abc"
              ~bytes:(Optimistic_abc.msg_size kr) ()
          in
          if crash_sequencer then Sim.crash sim 0;
          Optimistic_abc.broadcast nodes.(1) "o2-payload-a";
          Optimistic_abc.broadcast nodes.(2) "o2-payload-b";
          let honest =
            if crash_sequencer then Pset.remove 0 (Pset.full n) else Pset.full n
          in
          let finished () =
            Pset.for_all (fun i -> List.length logs.(i) >= 2) honest
          in
          let stall = Sweep.run_sim sim ~max_steps:400_000 ~until:finished in
          outcome sim
            (Oracle.check_abc ~honest ~expected:2 (Array.map List.rev logs)
            @ stall)
            ~rounds:0 ~progress:[]
        in
        let fast = run_opt ~crash_sequencer:false 90 in
        let abc = run_abc ~structure ~seed:90 payloads in
        let crashed = run_opt ~crash_sequencer:true 91 in
        let pr r = Printf.sprintf "%d / %dk" r.messages (r.bytes / 1024) in
        let recovered = ok crashed in
        Printf.printf "%-4d %-26s %-26s %b\n" n (pr fast) (pr abc) recovered;
        (fast.messages < abc.messages && live fast, recovered))
      [ (4, 1); (7, 2) ]
  in
  claim Higher "fast path below full abc messages" ~limit:2.0
    (count fst rows);
  claim Higher "sequencer crash recovered" ~limit:2.0 (count snd rows);
  print_endline
    "(failure-free, the sequencer fast path avoids agreement entirely; when\n\
    \ the sequencer dies, complaints trigger one validated agreement on the\n\
    \ fast-path cut-over and the randomized protocol finishes the job)"

(* ------------------------------------------------------------------ *)
(* O1: optimistic trade-off                                            *)
(* ------------------------------------------------------------------ *)

let o1 () =
  header "O1" "Deterministic fast path vs. randomized robustness";
  Printf.printf "%-4s %-26s %-26s\n" "n"
    "failure-free: pbft | abc (msgs)" "under leader-delay attack: live?";
  let attack = Sim.Delay_victims (Pset.singleton 0) in
  let attacked =
    List.map
      (fun (n, t) ->
        let structure = AS.threshold ~n ~t in
        let pb = run_pbft ~n ~f:t ~seed:70 [ "m" ] in
        let abc =
          run_abc ~policy:Sim.Latency_order ~structure ~seed:70 [ "m" ]
        in
        let pb_attacked =
          run_pbft ~policy:attack ~max_steps:6_000 ~n ~f:t ~seed:71 [ "m" ]
        in
        let abc_attacked = run_abc ~policy:attack ~structure ~seed:71 [ "m" ] in
        Printf.printf "%-4d %-26s pbft: %b (safe %b) | abc: %b\n" n
          (Printf.sprintf "%b %4d | %b %6d" (live pb) pb.messages (live abc)
             abc.messages)
          (live pb_attacked) (safe pb_attacked) (live abc_attacked);
        (pb_attacked, abc_attacked))
      [ (4, 1); (7, 2); (10, 3) ]
  in
  claim Higher "abc live under leader delay" ~limit:3.0
    (count (fun (_, abc) -> live abc) attacked);
  claim Lower "pbft live under leader delay" ~limit:0.0
    (count (fun (pb, _) -> live pb) attacked);
  print_endline
    "(the deterministic protocol is an order of magnitude cheaper when the\n\
    \ network is friendly -- the motivation for Section 6's optimistic\n\
    \ protocols -- but a scheduler that delays each leader starves it, while\n\
    \ the randomized atomic broadcast stays live)"

(* ------------------------------------------------------------------ *)
(* S1 / S2: services                                                   *)
(* ------------------------------------------------------------------ *)

let s1 () =
  header "S1" "Certification authority with a Byzantine forger (n=7, t=2)";
  let structure = AS.threshold ~n:7 ~t:2 in
  let kr = keyring structure in
  let sim =
    Sim.create ~size:(Link.frame_size (Service.msg_size kr))
      ~obs:(Bench_out.obs ()) ~n:7 ~seed:81 ()
  in
  let _nodes =
    Service.deploy
      ~wrap:
        (Byzantine.wrap_of ~sim ~keyring:kr ~seed:6 ~set:(Pset.singleton 6)
           Byzantine.For_service.forged_denial)
      ~sim ~keyring:kr ~mode:Service.Plain ~make_app:Ca.make_app ()
  in
  Sim.crash sim 1;
  let client = Service.Client.create ~sim ~keyring:kr ~slot:7 ~seed:5 () in
  let result = ref None in
  Service.Client.request client ~mode:Service.Plain
    (Ca.issue_request ~id:"alice" ~pubkey:"pk" ~credentials:"ok!ok")
    (fun rc -> result := Some rc);
  Sim.run sim ~until:(fun () -> !result <> None);
  let issued =
    match !result with
    | Some rc -> Ca.parse_certificate rc.Service.rc_response <> None
    | None -> false
  in
  Printf.printf "certificate issued despite 1 Byzantine + 1 crashed server: %b\n"
    issued;
  claim Higher "certificate issued" ~limit:1.0 (flag issued);
  let m = Sim.metrics sim in
  Printf.printf "cost: %d messages, %d kB\n" m.Metrics.messages_sent
    (m.Metrics.bytes_sent / 1024)

let s2 () =
  header "S2" "Notary confidentiality: SC-ABC vs. plain ABC";
  let contains ~needle haystack =
    let n = String.length haystack and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub haystack i m = needle || go (i + 1))
    in
    go 0
  in
  let run mode seed =
    let doc = "secret-patent-claim" in
    let structure = AS.threshold ~n:4 ~t:1 in
    let kr = keyring structure in
    let sim = Sim.create ~obs:(Bench_out.obs ()) ~n:4 ~seed () in
    let nodes =
      Service.nodes
        (Service.deploy ~sim ~keyring:kr ~mode ~make_app:Notary.make_app ())
    in
    let leaked = ref false in
    Sim.wrap_handler sim 3 (fun honest ~src frame ->
        (if nodes.(3).Service.executed = 0 then
           match frame with
           | Link.Raw m | Link.Data { payload = m; _ } -> (
             match m with
             | Service.Request { body; _ } when contains ~needle:doc body ->
               leaked := true
             | Service.Engine (Service.Abc_m (Abc.Request p))
               when contains ~needle:doc p ->
               leaked := true
             | Service.Request _ | Service.Query _ | Service.Engine _
             | Service.Response _ ->
               ())
           | Link.Ack _ -> ());
        honest ~src frame);
    let client = Service.Client.create ~sim ~keyring:kr ~slot:4 ~seed:9 () in
    let result = ref None in
    Service.Client.request client ~mode (Notary.register_request ~document:doc)
      (fun rc -> result := Some rc);
    Sim.run sim ~until:(fun () -> !result <> None);
    (!result <> None, !leaked)
  in
  let ok_c, leak_c = run Service.Confidential 82 in
  let ok_p, leak_p = run Service.Plain 83 in
  Printf.printf
    "secure causal ABC:  registered=%b  plaintext visible pre-ordering=%b (expect false)\n"
    ok_c leak_c;
  Printf.printf
    "plain ABC:          registered=%b  plaintext visible pre-ordering=%b (expect true)\n"
    ok_p leak_p;
  claim Lower "confidential leak" ~limit:0.0 (flag leak_c);
  claim Higher "plain leak" ~limit:1.0 (flag leak_p);
  claim Higher "registered" ~limit:2.0 (count Fun.id [ ok_c; ok_p ])

(* ------------------------------------------------------------------ *)
(* TPUT: payload batching x pipelined agreement throughput sweep       *)
(* ------------------------------------------------------------------ *)

let tput () =
  header "TPUT"
    "Throughput: batching x pipelining on the R2 config (n=4, t=1)";
  let structure = AS.threshold ~n:4 ~t:1 in
  let payloads_n = if !small then 24 else 64 in
  let payloads =
    List.init payloads_n (fun i -> Printf.sprintf "tput-payload-%03d" i)
  in
  (* (max_batch_msgs, window); (1,1) is the seed-equivalent baseline
     and (8,4) the headline configuration of the acceptance criterion. *)
  let grid = [ (1, 1); (4, 1); (1, 4); (4, 2); (8, 4) ] in
  Printf.printf "%-6s %-7s %-10s %-7s %-9s %-11s %-10s %-9s\n" "batch"
    "window" "delivered" "rounds" "steps" "payl/round" "kB/round"
    "dec/1k-st";
  let results =
    List.map
      (fun (b, w) ->
        let abc_policy =
          { Abc.default_policy with max_batch_msgs = b; window = w }
        in
        let r =
          run_abc ~abc_policy ~tag:"tput" ~max_steps:2_000_000 ~structure
            ~seed:4242 payloads
        in
        let delivered = List.fold_left (fun _ (_, d) -> d) 0 r.progress in
        let rounds = max 1 r.rounds in
        let payloads_per_round =
          float_of_int delivered /. float_of_int rounds
        in
        let bytes_per_round = float_of_int r.bytes /. float_of_int rounds in
        let decided_per_1k_steps =
          1000.0 *. float_of_int delivered /. float_of_int (max 1 r.steps)
        in
        Printf.printf "%-6d %-7d %-10d %-7d %-9d %-11.2f %-10.1f %-9.2f%s\n"
          b w delivered r.rounds r.steps payloads_per_round
          (bytes_per_round /. 1024.0) decided_per_1k_steps
          (if live r then "" else "  [FAILED]");
        Bench_out.gate
          (Bench_out.tput_gate ~batch:b ~window:w ~decided_per_1k_steps
             ~rounds:r.rounds ~delivered);
        let row =
          Obs_json.Obj
            [ ("batch", Obs_json.Int b);
              ("window", Obs_json.Int w);
              ("payloads", Obs_json.Int payloads_n);
              ("delivered", Obs_json.Int delivered);
              ("rounds", Obs_json.Int r.rounds);
              ("steps", Obs_json.Int r.steps);
              ("messages", Obs_json.Int r.messages);
              ("bytes", Obs_json.Int r.bytes);
              ("payloads_per_round", Obs_json.Float payloads_per_round);
              ("bytes_per_round", Obs_json.Float bytes_per_round);
              ("decided_per_1k_steps", Obs_json.Float decided_per_1k_steps);
              ("all_delivered", Obs_json.Bool (live r));
              ( "progress",
                Obs_json.Arr
                  (List.map
                     (fun (s, d) ->
                       Obs_json.Arr [ Obs_json.Int s; Obs_json.Int d ])
                     r.progress) )
            ]
        in
        (* The row breaks the invariant with no rounds, more deliveries
           than payloads, a progress curve that falls or a safety
           violation. *)
        let rec falls last = function
          | [] -> false
          | (_, d) :: rest -> d < last || falls d rest
        in
        ( (b, w), decided_per_1k_steps, row,
          r.rounds < 1 || delivered > payloads_n || falls 0 r.progress
          || not (safe r) ))
      grid
  in
  claim Lower "tput invariant breaks" ~limit:0.0
    (count (fun (_, _, _, broken) -> broken) results);
  List.iter (fun (_, _, row, _) -> Bench_out.per_run row) results;
  let rate bw =
    List.find_map
      (fun (bw', rate, _, _) -> if bw' = bw then Some rate else None)
      results
  in
  (match (rate (1, 1), rate (8, 4)) with
  | Some base, Some best when base > 0.0 ->
    let speedup = best /. base in
    Printf.printf
      "speedup (8,4) vs (1,1), decided payloads per 1k sim steps: %.2fx\n"
      speedup;
    Bench_out.gate
      [ Report.info "b8w4 vs b1w1 decided per 1k steps speedup" speedup ]
  | _ -> ())

let experiments =
  [ ("F1", f1); ("F2", f2); ("E1", e1); ("E2", e2); ("G1", g1); ("R1", r1); ("R2", r2); ("M1", m1);
    ("O1", o1); ("O2", o2); ("S1", s1); ("S2", s2); ("TPUT", tput) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  small := List.mem "--small" args;
  let requested =
    match List.filter (( <> ) "--small") args with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> Bench_out.with_experiment ~id:name f
      | None -> Printf.printf "unknown experiment %S\n" name)
    requested;
  print_newline ()
