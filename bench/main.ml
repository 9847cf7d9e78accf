(* Benchmark / experiment harness: regenerates every table- and
   figure-level claim of the paper (see DESIGN.md section 3 and
   EXPERIMENTS.md for the paper-vs-measured record).

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- F1 R1    -- run selected experiments

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
     M2  Certificate-compression ablation (vector vs. RSA dual-threshold)
     O1  Optimistic/deterministic trade-off: fast path vs. attack
     O2  The implemented optimistic atomic broadcast (Section 6):
         sequencer fast path vs. full agreement, and crash recovery
     S1  CA / directory service end-to-end with a Byzantine server
     S2  Notary confidentiality: SC-ABC vs. plain ABC front-running
     C1  Threshold-crypto and scheduler micro-benchmarks (Bechamel)
     C2  Bignum substrate micro-benchmarks (Bechamel)
*)

module AS = Adversary_structure

(* --small: shrink the heavy sweeps (R1, M1) so `make bench-smoke` runs
   in seconds.  Every experiment still writes its BENCH_<id>.json. *)
let small = ref false

let line = String.make 78 '-'

let header id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

let keyrings : (string, Keyring.t) Hashtbl.t = Hashtbl.create 8

let keyring ?(cert_mode = Keyring.Vector_mode) (structure : AS.t) : Keyring.t =
  let key =
    Printf.sprintf "%d/%s/%b" (AS.n structure)
      (match AS.threshold_of structure with
      | Some t -> "t" ^ string_of_int t
      | None -> "gen")
      (cert_mode = Keyring.Compressed_mode)
  in
  match Hashtbl.find_opt keyrings key with
  | Some kr -> kr
  | None ->
    let kr = Keyring.deal ~rsa_bits:192 ~cert_mode ~seed:4242 structure in
    Hashtbl.add keyrings key kr;
    kr

(* ------------------------------------------------------------------ *)
(* Shared runners                                                      *)
(* ------------------------------------------------------------------ *)

type abc_run = {
  delivered_all : bool;
  safety_ok : bool;
  messages : int;
  bytes : int;
  virtual_time : float;
  rounds : int;
}

(* Any two honest delivery logs (newest first) are prefix-consistent. *)
let prefix_consistent logs honest =
  let rec prefix x y =
    match (x, y) with
    | [], _ | _, [] -> true
    | h1 :: t1, h2 :: t2 -> h1 = h2 && prefix t1 t2
  in
  List.for_all
    (fun i ->
      List.for_all
        (fun j -> prefix (List.rev logs.(i)) (List.rev logs.(j)))
        honest)
    honest

let run_abc_once ?(policy = Sim.Random_order) ?(crashed = Pset.empty)
    ~structure ~seed ~payloads ?(max_steps = 400_000) ?cert_mode () : abc_run =
  let kr = keyring ?cert_mode structure in
  let n = AS.n structure in
  let sim =
    Sim.create ~policy ~size:(Link.frame_size (Abc.msg_size kr)) ~obs:(Bench_out.obs ()) ~n
      ~seed ()
  in
  let logs = Array.make n [] in
  let nodes =
    Stack.deploy_abc ~sim ~keyring:kr ~tag:(Printf.sprintf "bench-%d" seed)
      ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
  in
  Pset.iter (Sim.crash sim) crashed;
  List.iteri
    (fun i p ->
      let submitter = i mod n in
      let submitter =
        if Pset.mem submitter crashed then
          (* first honest server *)
          List.find (fun j -> not (Pset.mem j crashed)) (List.init n Fun.id)
        else submitter
      in
      Abc.broadcast nodes.(submitter) p)
    payloads;
  let honest = List.filter (fun i -> not (Pset.mem i crashed)) (List.init n Fun.id) in
  let want = List.length (List.sort_uniq compare payloads) in
  let delivered_all =
    try
      Sim.run sim ~max_steps
        ~until:(fun () ->
          List.for_all (fun i -> List.length logs.(i) >= want) honest);
      List.for_all (fun i -> List.length logs.(i) >= want) honest
    with Sim.Out_of_steps _ -> false
  in
  let m = Sim.metrics sim in
  { delivered_all;
    safety_ok = prefix_consistent logs honest;
    messages = m.Metrics.messages_sent;
    bytes = m.Metrics.bytes_sent;
    virtual_time = Sim.clock sim;
    rounds = List.fold_left (fun acc i -> max acc (Abc.current_round nodes.(i))) 0 honest }

let run_pbft_once ?(policy = Sim.Latency_order) ?(crashed = Pset.empty)
    ?(adaptive_leader_delay = false) ~n ~f ~seed ~payloads
    ?(max_steps = 100_000) () =
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
  Pset.iter (Sim.crash sim) crashed;
  List.iteri
    (fun i p ->
      let s = i mod n in
      if not (Pset.mem s crashed) then Pbft_lite.submit nodes.(s) p)
    payloads;
  let honest = List.filter (fun i -> not (Pset.mem i crashed)) (List.init n Fun.id) in
  let want = List.length (List.sort_uniq compare payloads) in
  let delivered_all =
    try
      Sim.run sim ~max_steps
        ~until:(fun () ->
          (if adaptive_leader_delay then begin
             let victims =
               Array.fold_left
                 (fun acc node ->
                   Pset.add (Pbft_lite.current_view node mod n) acc)
                 Pset.empty nodes
             in
             Sim.set_policy sim (Sim.Delay_victims victims)
           end);
          List.for_all (fun i -> List.length logs.(i) >= want) honest);
      List.for_all (fun i -> List.length logs.(i) >= want) honest
    with Sim.Out_of_steps _ -> false
  in
  let m = Sim.metrics sim in
  (delivered_all, prefix_consistent logs honest, m.Metrics.messages_sent, m.Metrics.bytes_sent,
   Sim.clock sim)

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 reproduction                                           *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1" "Figure 1: systems for secure state machine replication";
  print_endline
    "Measured rows (n=4, t=1; 10 seeds each; payload must reach all replicas):";
  Printf.printf "%-22s %-8s %-8s %-5s %-18s %-18s %s\n" "system" "timing"
    "servers" "BA?" "benign: live/safe" "attack: live/safe" "mechanism";
  let th = AS.threshold ~n:4 ~t:1 in
  let seeds = List.init 10 (fun i -> 900 + i) in
  (* our system *)
  let ours_benign =
    List.map
      (fun seed ->
        run_abc_once ~policy:Sim.Latency_order ~structure:th ~seed
          ~payloads:[ "req" ] ())
      seeds
  in
  let ours_attack =
    List.map
      (fun seed ->
        run_abc_once
          ~policy:(Sim.Delay_victims (Pset.singleton 0))
          ~structure:th ~seed ~payloads:[ "req" ] ())
      seeds
  in
  let live rs = List.for_all (fun r -> r.delivered_all) rs in
  let safe rs = List.for_all (fun r -> r.safety_ok) rs in
  Printf.printf "%-22s %-8s %-8s %-5s %-18s %-18s %s\n" "this work (SINTRA)"
    "async" "static" "yes"
    (Printf.sprintf "%b / %b" (live ours_benign) (safe ours_benign))
    (Printf.sprintf "%b / %b" (live ours_attack) (safe ours_attack))
    "cryptographic coin, Q3 adversaries";
  (* CL99 baseline *)
  let pb_benign =
    List.map
      (fun seed ->
        run_pbft_once ~policy:Sim.Latency_order ~n:4 ~f:1 ~seed
          ~payloads:[ "req" ] ())
      seeds
  in
  let pb_attack =
    List.map
      (fun seed ->
        run_pbft_once
          ~policy:(Sim.Delay_victims (Pset.singleton 0))
          ~adaptive_leader_delay:true ~n:4 ~f:1 ~seed ~payloads:[ "req" ]
          ~max_steps:6_000 ())
      seeds
  in
  let live5 rs = List.for_all (fun (d, _, _, _, _) -> d) rs in
  let safe5 rs = List.for_all (fun (_, s, _, _, _) -> s) rs in
  Printf.printf "%-22s %-8s %-8s %-5s %-18s %-18s %s\n" "CL99 (PBFT-lite)"
    "async" "static" "no"
    (Printf.sprintf "%b / %b" (live5 pb_benign) (safe5 pb_benign))
    (Printf.sprintf "%b / %b" (live5 pb_attack) (safe5 pb_attack))
    "timeout failure detector for liveness";
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
  let deploy sim timeout =
    let n = Sim.n sim in
    let logs = Array.make n [] in
    let nodes =
      Array.init n (fun me ->
          Membership_abc.create ~me ~n
            ~send:(fun dst m -> Sim.send sim ~src:me ~dst m)
            ~broadcast:(fun m -> Sim.broadcast sim ~src:me m)
            ~set_timer:(fun ~delay cb -> Sim.set_timer sim me ~delay cb)
            ~deliver:(fun p -> logs.(me) <- p :: logs.(me))
            ~timeout ())
    in
    Array.iteri
      (fun me node ->
        Sim.set_handler sim me (fun ~src m -> Membership_abc.handle node ~src m))
      nodes;
    Array.iter Membership_abc.start nodes;
    (nodes, logs)
  in
  (* benign: works *)
  let sim =
    Sim.create ~policy:Sim.Latency_order ~size:Membership_abc.msg_size
      ~obs:(Bench_out.obs ()) ~n:4 ~seed:41 ()
  in
  let nodes, logs = deploy sim 500.0 in
  Membership_abc.submit nodes.(1) "benign-payload";
  Sim.run sim ~until:(fun () -> Array.for_all (fun l -> l <> []) logs);
  Printf.printf "benign network:   delivered everywhere = %b, view = %d (%d msgs)\n"
    (Array.for_all (fun l -> l = [ "benign-payload" ]) logs)
    (Membership_abc.current_view nodes.(0))
    (Sim.metrics sim).Metrics.messages_sent;
  (* attack: delay honest members 0 and 3 until eviction; the Byzantine
     member 1 then dominates the shrunken view and equivocates *)
  let sim =
    Sim.create ~policy:(Sim.Delay_victims (Pset.of_list [ 0; 3 ]))
      ~size:Membership_abc.msg_size ~obs:(Bench_out.obs ()) ~n:4 ~seed:42 ()
  in
  let nodes, logs = deploy sim 300.0 in
  let honest_handler = fun ~src m -> Membership_abc.handle nodes.(1) ~src m in
  let equivocations = ref 0 in
  let injected = ref (-1) in
  Sim.set_handler sim 1 (fun ~src m ->
      (match m with
      | Membership_abc.Submit _ -> ()  (* the Byzantine sequencer stalls *)
      | _ -> honest_handler ~src m);
      let self = nodes.(1) in
      let v = Membership_abc.current_view self in
      if v > !injected then begin
        injected := v;
        List.iter
          (fun suspect ->
            if Pset.mem suspect (Membership_abc.members self) then
              Sim.broadcast sim ~src:1 (Membership_abc.Suspect (v, suspect)))
          [ 0; 3 ]
      end;
      let victim = nodes.(2) in
      if
        !equivocations < 10
        && Pset.card (Membership_abc.members victim) <= 2
        && (match Pset.to_list (Membership_abc.members victim) with
           | s :: _ -> s = 1
           | [] -> false)
      then begin
        incr equivocations;
        let v = Membership_abc.current_view victim in
        Sim.send sim ~src:1 ~dst:2 (Membership_abc.Order (v, 0, "evil-A"));
        Sim.send sim ~src:1 ~dst:2
          (Membership_abc.Ack (v, 0, Sha256.digest "evil-A"));
        Sim.send sim ~src:1 ~dst:0 (Membership_abc.Order (v, 0, "evil-B"));
        Sim.send sim ~src:1 ~dst:3 (Membership_abc.Order (v, 0, "evil-B"))
      end);
  Membership_abc.submit nodes.(2) "victim-payload";
  (try Sim.run sim ~max_steps:8_000 with Sim.Out_of_steps _ -> ());
  let shrunk = Pset.card (Membership_abc.members nodes.(2)) in
  let equiv_delivered = List.mem "evil-A" logs.(2) in
  Printf.printf
    "delay adversary:  view shrank to %d members; equivocated payload\n\
    \                  delivered at an honest member = %b  => SAFETY VIOLATED\n"
    shrunk equiv_delivered;
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
  Printf.printf "Q3 condition: %b; sharing compatible: %b; |A*| = %d\n"
    (AS.satisfies_q3 s1)
    (AS.check_sharing_compatible s1)
    (List.length (AS.maximal_adversary_sets s1));
  let maxes = AS.maximal_adversary_sets s1 in
  let ok = ref 0 and total = ref 0 in
  List.iteri
    (fun idx bad ->
      incr total;
      let r =
        run_abc_once ~structure:s1 ~seed:(7000 + idx) ~crashed:bad
          ~payloads:[ "p1"; "p2" ] ()
      in
      if r.delivered_all && r.safety_ok then incr ok
      else
        Printf.printf "  FAILED pattern %s: live=%b safe=%b\n"
          (Pset.to_string bad) r.delivered_all r.safety_ok)
    maxes;
  Printf.printf
    "crash sweep over every maximal corruptible set: %d/%d patterns live & safe\n"
    !ok !total;
  (* boundary: a qualified (non-corruptible) set of 3 servers *)
  let beyond = Pset.of_list [ 0; 4; 6 ] in
  let r =
    run_abc_once ~structure:s1 ~seed:7999 ~crashed:beyond
      ~payloads:[ "p1" ] ~max_steps:60_000 ()
  in
  Printf.printf
    "beyond the structure (crash qualified set %s): live=%b (expected false), safe=%b\n"
    (Pset.to_string beyond) r.delivered_all r.safety_ok;
  Printf.printf
    "threshold comparison: best uniform tolerance of A1 = %d servers;\n\
     A1 additionally tolerates the whole class a (4 servers at once)\n"
    (AS.max_uniform_tolerance s1)

let e2 () =
  header "E2" "Example 2: 16 servers, 4 sites x 4 operating systems";
  let s2 = Canonical_structures.example2 () in
  Printf.printf "Q3 condition: %b; sharing compatible: %b; |A*| = %d\n"
    (AS.satisfies_q3 s2)
    (AS.check_sharing_compatible s2)
    (List.length (AS.maximal_adversary_sets s2));
  let ok = ref 0 and total = ref 0 in
  for row = 0 to 3 do
    for col = 0 to 3 do
      incr total;
      let bad = Canonical_structures.example2_site_plus_os ~row ~col in
      let r =
        run_abc_once ~structure:s2 ~seed:(8000 + (4 * row) + col) ~crashed:bad
          ~payloads:[ "p" ] ()
      in
      if r.delivered_all && r.safety_ok then incr ok
      else
        Printf.printf "  FAILED site %d + OS %d: live=%b safe=%b\n" row col
          r.delivered_all r.safety_ok
    done
  done;
  Printf.printf
    "site+OS sweep (7 of 16 servers down, all 16 patterns): %d/%d live & safe\n"
    !ok !total;
  Printf.printf
    "any threshold structure on 16 servers satisfies Q3 only up to t = 5:\n\
    \  q3(t=5) = %b, q3(t=6) = %b; the 7-server pattern is NOT corruptible at t=5: %b\n"
    (AS.satisfies_q3 (AS.threshold ~n:16 ~t:5))
    (AS.satisfies_q3 (AS.threshold ~n:16 ~t:6))
    (AS.is_corruptible (AS.threshold ~n:16 ~t:5)
       (Canonical_structures.example2_site_plus_os ~row:0 ~col:0));
  (* demonstrate the threshold deployment actually stalls on the pattern *)
  let th = AS.threshold ~n:16 ~t:5 in
  let bad = Canonical_structures.example2_site_plus_os ~row:0 ~col:0 in
  let r =
    run_abc_once ~structure:th ~seed:8100 ~crashed:bad ~payloads:[ "p" ]
      ~max_steps:120_000 ()
  in
  Printf.printf
    "t=5 threshold deployment under the same 7-server crash: live=%b (expected false), safe=%b\n"
    r.delivered_all r.safety_ok

(* ------------------------------------------------------------------ *)
(* G1: cost of generalized adversary structures                        *)
(* ------------------------------------------------------------------ *)

let g1 () =
  header "G1"
    "Overhead of generalized adversary structures (ablation, n = 9)";
  Printf.printf "%-28s %-10s %-12s %-12s\n" "structure" "msgs" "kB"
    "virt. time";
  List.iter
    (fun (name, structure) ->
      let r =
        run_abc_once ~structure ~seed:55 ~payloads:[ "g1-a"; "g1-b" ] ()
      in
      Printf.printf "%-28s %-10d %-12d %-12.0f%s\n" name r.messages
        (r.bytes / 1024) r.virtual_time
        (if r.delivered_all && r.safety_ok then "" else "  [FAILED]"))
    [ ("threshold t=2 (9 servers)", AS.threshold ~n:9 ~t:2);
      ("example 1 (9 servers)", Canonical_structures.example1 ()) ];
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
  List.iter
    (fun (n, t) ->
      let structure = AS.threshold ~n ~t in
      let kr = keyring structure in
      let rounds = ref [] and msgs = ref [] and agree = ref true in
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
        Array.iteri (fun i node -> Abba.propose node (i mod 2 = 0)) nodes;
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun d -> d <> None) decisions);
        let ds = Array.to_list decisions |> List.filter_map Fun.id in
        (match ds with
        | d :: rest -> if not (List.for_all (( = ) d) rest) then agree := false
        | [] -> agree := false);
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
        !agree (mean !msgs))
    (if !small then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3); (13, 4) ])

(* ------------------------------------------------------------------ *)
(* R2: atomic broadcast liveness / cost per delivery                   *)
(* ------------------------------------------------------------------ *)

let r2 () =
  header "R2" "Atomic broadcast: rounds, messages and virtual latency";
  Printf.printf "%-4s %-10s %-8s %-14s %-14s %-12s\n" "n" "payloads" "rounds"
    "msgs/payload" "kB/payload" "virt. time";
  List.iter
    (fun (n, t, k) ->
      let structure = AS.threshold ~n ~t in
      let payloads = List.init k (fun i -> Printf.sprintf "payload-%02d" i) in
      let r = run_abc_once ~structure ~seed:(100 * n) ~payloads () in
      Printf.printf "%-4d %-10d %-8d %-14.0f %-14.1f %-12.0f%s\n" n k r.rounds
        (float_of_int r.messages /. float_of_int k)
        (float_of_int r.bytes /. 1024.0 /. float_of_int k)
        r.virtual_time
        (if r.delivered_all && r.safety_ok then "" else "  [FAILED]"))
    [ (4, 1, 1); (4, 1, 4); (4, 1, 8); (7, 2, 4); (10, 3, 4) ]

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
      (* RBC *)
      let rbc_m =
        let sim =
          Sim.create ~size:(Link.frame_size Rbc.msg_size) ~obs:(Bench_out.obs ()) ~n ~seed:1 ()
        in
        let cnt = ref 0 in
        let nodes =
          Stack.deploy_rbc ~sim ~keyring:kr ~sender:0 ~deliver:(fun _ _ -> incr cnt) ()
        in
        Rbc.broadcast nodes.(0) "m";
        Sim.run sim;
        ((Sim.metrics sim).Metrics.messages_sent, (Sim.metrics sim).Metrics.bytes_sent)
      in
      let cbc_m =
        let sim =
          Sim.create ~size:(Link.frame_size (Cbc.msg_size kr)) ~obs:(Bench_out.obs ()) ~n
            ~seed:2 ()
        in
        let nodes =
          Stack.deploy_cbc ~sim ~keyring:kr ~tag:"m1" ~sender:0
            ~deliver:(fun _ _ _ -> ()) ()
        in
        Cbc.broadcast nodes.(0) "m";
        Sim.run sim;
        ((Sim.metrics sim).Metrics.messages_sent, (Sim.metrics sim).Metrics.bytes_sent)
      in
      let abba_m =
        let sim =
          Sim.create ~size:(Link.frame_size (Abba.msg_size kr)) ~obs:(Bench_out.obs ()) ~n
            ~seed:3 ()
        in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr ~tag:"m1a" ~on_decide:(fun _ _ -> ()) ()
        in
        Array.iteri (fun i node -> Abba.propose node (i mod 2 = 0)) nodes;
        Sim.run sim;
        ((Sim.metrics sim).Metrics.messages_sent, (Sim.metrics sim).Metrics.bytes_sent)
      in
      let vba_m =
        let sim =
          Sim.create ~size:(Link.frame_size (Vba.msg_size kr)) ~obs:(Bench_out.obs ()) ~n
            ~seed:4 ()
        in
        let nodes =
          Stack.deploy_vba ~sim ~keyring:kr ~tag:"m1v" ~on_decide:(fun _ ~winner:_ _ -> ()) ()
        in
        Array.iteri
          (fun i node -> Vba.propose node (Printf.sprintf "val-%d" i))
          nodes;
        Sim.run sim;
        ((Sim.metrics sim).Metrics.messages_sent, (Sim.metrics sim).Metrics.bytes_sent)
      in
      let abc_m =
        let r = run_abc_once ~structure ~seed:5 ~payloads:[ "m" ] () in
        (r.messages, r.bytes)
      in
      let pr (m, b) = Printf.sprintf "%d/%dk" m (b / 1024) in
      Printf.printf "%-6d %-12s %-12s %-12s %-12s %-12s\n" n (pr rbc_m)
        (pr cbc_m) (pr abba_m) (pr vba_m) (pr abc_m))
    (if !small then [ (4, 1) ] else [ (4, 1); (7, 2); (10, 3); (13, 4) ]);
  print_endline "(cells are messages / kilobytes until quiescence)"

(* ------------------------------------------------------------------ *)
(* M2: certificate compression ablation                                *)
(* ------------------------------------------------------------------ *)

let m2 () =
  header "M2"
    "Ablation: signature-vector vs. RSA dual-threshold certificates";
  Printf.printf "%-6s %-22s %-22s\n" "n" "vector msgs/bytes" "compressed msgs/bytes";
  List.iter
    (fun (n, t) ->
      let structure = AS.threshold ~n ~t in
      let vec =
        let r = run_abc_once ~structure ~seed:60 ~payloads:[ "m" ] () in
        (r.messages, r.bytes)
      in
      let comp =
        let r =
          run_abc_once ~structure ~seed:60 ~payloads:[ "m" ]
            ~cert_mode:Keyring.Compressed_mode ()
        in
        (r.messages, r.bytes)
      in
      let pr (m, b) = Printf.sprintf "%d / %d" m b in
      Printf.printf "%-6d %-22s %-22s\n" n (pr vec) (pr comp))
    [ (4, 1); (7, 2); (10, 3) ];
  print_endline
    "(the paper: \"threshold signatures are further employed to decrease all\n\
    \ messages to a constant size\" -- compression shrinks every certificate\n\
    \ from O(n) signatures to one RSA value; total bytes drop ~15-30% here\n\
    \ because payload dissemination, not certificates, dominates at these n)"

(* ------------------------------------------------------------------ *)
(* O2: the implemented optimistic protocol (Section 6 extension)       *)
(* ------------------------------------------------------------------ *)

let o2 () =
  header "O2"
    "Optimistic atomic broadcast: fast path cost vs. randomized fallback";
  Printf.printf "%-4s %-26s %-26s %-22s\n" "n" "fast path msgs/bytes"
    "full abc msgs/bytes" "sequencer crash: recovered?";
  List.iter
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
              Optimistic_abc.create ~io ~tag:"o2" ~sequencer:0
                ~set_timer:(fun ~delay cb -> Sim.set_timer sim me ~delay cb)
                ~timeout:800.0
                ~deliver:(fun p -> logs.(me) <- p :: logs.(me))
                ())
            ~handle:Optimistic_abc.handle ~layer:"opt-abc"
            ~bytes:(Optimistic_abc.msg_size kr) ()
        in
        if crash_sequencer then Sim.crash sim 0;
        Optimistic_abc.broadcast nodes.(1) "o2-payload-a";
        Optimistic_abc.broadcast nodes.(2) "o2-payload-b";
        let honest =
          List.filter (fun i -> not (crash_sequencer && i = 0)) (List.init n Fun.id)
        in
        let ok =
          try
            Sim.run sim ~max_steps:400_000
              ~until:(fun () ->
                List.for_all (fun i -> List.length logs.(i) >= 2) honest);
            true
          with Sim.Out_of_steps _ -> false
        in
        let m = Sim.metrics sim in
        (ok, m.Metrics.messages_sent, m.Metrics.bytes_sent)
      in
      let _, fm, fb = run_opt ~crash_sequencer:false 90 in
      let abc = run_abc_once ~structure ~seed:90 ~payloads:[ "o2-payload-a"; "o2-payload-b" ] () in
      let rec_ok, _, _ = run_opt ~crash_sequencer:true 91 in
      Printf.printf "%-4d %-26s %-26s %b\n" n
        (Printf.sprintf "%d / %dk" fm (fb / 1024))
        (Printf.sprintf "%d / %dk" abc.messages (abc.bytes / 1024))
        rec_ok)
    [ (4, 1); (7, 2) ];
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
  List.iter
    (fun (n, t) ->
      let structure = AS.threshold ~n ~t in
      let pb_live, _, pb_msgs, _, _ =
        run_pbft_once ~policy:Sim.Latency_order ~n ~f:t ~seed:70
          ~payloads:[ "m" ] ()
      in
      let abc = run_abc_once ~policy:Sim.Latency_order ~structure ~seed:70 ~payloads:[ "m" ] () in
      let pb_attacked, pb_safe, _, _, _ =
        run_pbft_once
          ~policy:(Sim.Delay_victims (Pset.singleton 0))
          ~adaptive_leader_delay:true ~n ~f:t ~seed:71 ~payloads:[ "m" ]
          ~max_steps:6_000 ()
      in
      let abc_attacked =
        run_abc_once
          ~policy:(Sim.Delay_victims (Pset.singleton 0))
          ~structure ~seed:71 ~payloads:[ "m" ] ()
      in
      Printf.printf "%-4d %-26s pbft: %b (safe %b) | abc: %b\n" n
        (Printf.sprintf "%b %4d | %b %6d" pb_live pb_msgs abc.delivered_all
           abc.messages)
        pb_attacked pb_safe abc_attacked.delivered_all)
    [ (4, 1); (7, 2); (10, 3) ];
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
    Service.deploy ~sim ~keyring:kr ~mode:Service.Plain ~make_app:Ca.make_app ()
  in
  Sim.set_handler sim 6 (fun ~src:_ (frame : Service.msg Link.frame) ->
      match frame with
      | Link.Raw (Service.Request { client; body })
      | Link.Data { payload = Service.Request { client; body }; _ } ->
        let req_digest = Sha256.digest body in
        let response = Codec.encode [ "denied"; "forged" ] in
        let share =
          Keyring.service_sign_share kr ~party:6
            (Service.response_statement ~req_digest ~response)
        in
        Sim.send sim ~src:6 ~dst:client
          (Link.Raw
             (Service.Response
                (Codec.encode_svc_reply ~fast:false ~req_digest ~server:6
                   ~response ~share:(Keyring.sig_share_to_bytes kr share))))
      | Link.Raw _ | Link.Data _ | Link.Ack _ -> ());
  Sim.crash sim 1;
  let client = Service.Client.create ~sim ~keyring:kr ~slot:7 ~seed:5 () in
  let result = ref None in
  Service.Client.request client ~mode:Service.Plain
    (Ca.issue_request ~id:"alice" ~pubkey:"pk" ~credentials:"ok!ok")
    (fun rc -> result := Some rc);
  Sim.run sim ~until:(fun () -> !result <> None);
  (match !result with
  | Some rc ->
    Printf.printf
      "certificate issued despite 1 Byzantine + 1 crashed server: %b\n"
      (Ca.parse_certificate rc.Service.rc_response <> None)
  | None -> print_endline "FAILED: request did not complete");
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
    ok_p leak_p

(* ------------------------------------------------------------------ *)
(* C1: crypto and scheduler micro-benchmarks (Bechamel)                *)
(* ------------------------------------------------------------------ *)

let c1 () =
  header "C1" "Threshold-cryptography and scheduler micro-benchmarks";
  let open Bechamel in
  let structure = AS.threshold ~n:4 ~t:1 in
  let kr = keyring structure in
  let ps = kr.Keyring.group in
  let rng = Prng.create ~seed:1 in
  let coin = kr.Keyring.coin in
  let enc = kr.Keyring.enc in
  let coin_shares =
    List.init 4 (fun i -> (i, Coin.generate_share coin ~party:i ~name:"bench"))
  in
  let ct = Tdh2.encrypt enc rng ~label:"bench" "a fairly short message" in
  let checked = Option.get (Tdh2.check enc ct) in
  let dec_shares =
    List.filter_map
      (fun i ->
        Option.map (fun s -> (i, s)) (Tdh2.decryption_share enc ~party:i ct))
      [ 0; 1 ]
  in
  let rsa =
    match kr.Keyring.service with
    | Keyring.Rsa_keys keys -> keys
    | Keyring.Cert_keys _ -> assert false
  in
  let rsa_shares =
    List.map (fun i -> Rsa_threshold.sign_share rsa ~party:i "bench-msg") [ 0; 1 ]
  in
  (* What a client combines when one of the first k = 3 bare replies at
     n = 7 is bad: the first combination fails, the subset search runs. *)
  let rsa7 =
    match (keyring (AS.threshold ~n:7 ~t:2)).Keyring.service with
    | Keyring.Rsa_keys keys -> keys
    | Keyring.Cert_keys _ -> assert false
  in
  let one_bad =
    List.map
      (fun i ->
        let s = Rsa_threshold.bare_share rsa7 ~party:i "bench-msg" in
        if i = 0 then { s with Rsa_threshold.x = Bignum.add s.Rsa_threshold.x Bignum.one }
        else s)
      [ 0; 1; 2; 3 ]
  in
  let exp_e = Schnorr_group.random_exponent ps rng in
  let kp = Schnorr_sig.generate ps rng in
  let sg = Schnorr_sig.sign ps kp "bench-msg" in
  let tests =
    Test.make_grouped ~name:"crypto"
      [ Test.make ~name:"group.exp"
          (Staged.stage (fun () -> ignore (Schnorr_group.exp_g ps exp_e)));
        Test.make ~name:"sha256.1kB"
          (let s = String.make 1024 'x' in
           Staged.stage (fun () -> ignore (Sha256.digest s)));
        Test.make ~name:"schnorr.sign"
          (Staged.stage (fun () -> ignore (Schnorr_sig.sign ps kp "bench-msg")));
        Test.make ~name:"schnorr.verify"
          (Staged.stage (fun () ->
               ignore (Schnorr_sig.verify ps ~pk:kp.Schnorr_sig.pk "bench-msg" sg)));
        Test.make ~name:"coin.share"
          (Staged.stage (fun () ->
               ignore (Coin.generate_share coin ~party:0 ~name:"bench")));
        Test.make ~name:"coin.verify"
          (Staged.stage (fun () ->
               ignore
                 (Coin.verify_share coin ~party:0 ~name:"bench"
                    (List.assoc 0 coin_shares))));
        Test.make ~name:"coin.combine(t+1)"
          (Staged.stage (fun () ->
               ignore
                 (Coin.combine coin ~name:"bench" ~avail:(Pset.of_list [ 0; 1 ])
                    (List.filter (fun (i, _) -> i < 2) coin_shares)
                    ())));
        Test.make ~name:"tdh2.encrypt"
          (Staged.stage (fun () ->
               ignore (Tdh2.encrypt enc rng ~label:"bench" "a fairly short message")));
        Test.make ~name:"tdh2.dec-share"
          (Staged.stage (fun () -> ignore (Tdh2.decryption_share enc ~party:0 ct)));
        Test.make ~name:"tdh2.combine"
          (Staged.stage (fun () ->
               ignore (Tdh2.combine enc checked ~avail:(Pset.of_list [ 0; 1 ]) dec_shares)));
        Test.make ~name:"rsa.sign-share"
          (Staged.stage (fun () ->
               ignore (Rsa_threshold.sign_share rsa ~party:0 "bench-msg")));
        Test.make ~name:"rsa.reply-share"
          (Staged.stage (fun () ->
               ignore (Rsa_threshold.bare_share rsa ~party:0 "bench-msg")));
        Test.make ~name:"rsa.verify-share"
          (Staged.stage (fun () ->
               ignore (Rsa_threshold.verify_share rsa "bench-msg" (List.hd rsa_shares))));
        Test.make ~name:"rsa.combine"
          (Staged.stage (fun () ->
               ignore (Rsa_threshold.combine rsa "bench-msg" rsa_shares)));
        Test.make ~name:"rsa.combine (one bad share, n=7)"
          (Staged.stage (fun () ->
               ignore (Rsa_threshold.combine rsa7 "bench-msg" one_bad)))
      ]
  in
  (* The scheduler in steady state: each run sends one envelope and
     steps once under [Random_order], so the queue stays at [pending].
     The chaos spec has the 12 client-link overrides of the lossy-crash
     workload and no fault, so it adds the per-link lookups and nothing
     else. *)
  let sim_step ~pending ~chaos =
    let sim : int Sim.t = Sim.create ~n:4 ~seed:1 () in
    for p = 0 to 11 do
      Sim.set_handler sim p (fun ~src:_ _ -> ())
    done;
    if chaos then
      Sim.set_chaos sim
        (Some
           { Sim.benign_chaos with
             Sim.links =
               List.concat_map
                 (fun r -> List.init 3 (fun i -> ((r, 4 + i), Sim.no_fault)))
                 [ 0; 1; 2; 3 ] });
    let i = ref 0 in
    let send () =
      incr i;
      Sim.send sim ~src:(!i mod 4) ~dst:(!i mod 7) !i
    in
    for _ = 1 to pending do
      send ()
    done;
    Test.make
      ~name:
        (Printf.sprintf "%d pending%s" pending (if chaos then ", chaos" else ""))
      (Staged.stage (fun () ->
           send ();
           ignore (Sim.step sim)))
  in
  let sim_tests =
    Test.make_grouped ~name:"sim.step"
      (List.concat_map
         (fun pending ->
           [ sim_step ~pending ~chaos:false; sim_step ~pending ~chaos:true ])
         [ 100; 1_000; 10_000 ])
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"" ~fmt:"%s%s" [ tests; sim_tests ])
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  Printf.printf "%-40s %14s\n" "operation"
    (Printf.sprintf "time (us), %d-bit group" (Bignum.numbits ps.Schnorr_group.p));
  List.iter
    (fun (name, r) ->
      let digits = if String.starts_with ~prefix:"sim." name then 3 else 1 in
      match Analyze.OLS.estimates r with
      | Some (est :: _) ->
        Printf.printf "%-40s %14.*f\n" name digits (est /. 1000.0)
      | Some [] | None -> Printf.printf "%-40s %14s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* C2: bignum substrate micro-benchmarks                               *)
(* ------------------------------------------------------------------ *)

let c2 () =
  header "C2" "Bignum substrate micro-benchmarks (pure OCaml, per size)";
  let open Bechamel in
  let rng = Prng.create ~seed:9 in
  let tests =
    Test.make_grouped ~name:"bignum"
      (List.concat_map
         (fun bits ->
           let a = Prng.bignum_bits rng bits in
           let b = Prng.bignum_bits rng bits in
           let m = Bignum.add (Prng.bignum_bits rng bits) Bignum.one in
           let e = Prng.bignum_bits rng bits in
           [ Test.make ~name:(Printf.sprintf "mul.%d" bits)
               (Staged.stage (fun () -> ignore (Bignum.mul a b)));
             Test.make ~name:(Printf.sprintf "divmod.%d" bits)
               (Staged.stage (fun () -> ignore (Bignum.divmod (Bignum.mul a b) m)));
             Test.make ~name:(Printf.sprintf "pow_mod.%d" bits)
               (Staged.stage (fun () ->
                    ignore (Bignum.pow_mod ~base:a ~exp:e ~modulus:m)));
             Test.make ~name:(Printf.sprintf "inv_mod.%d" bits)
               (Staged.stage (fun () -> ignore (Bignum.inv_mod a m))) ])
         [ 128; 256; 512 ])
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  Printf.printf "%-28s %14s\n" "operation" "time (us)";
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Printf.printf "%-28s %14.2f\n" name (est /. 1000.0)
      | Some [] | None -> Printf.printf "%-28s %14s\n" name "n/a")
    (List.sort compare rows);
  print_endline
    "(pow_mod dominates every protocol cost and scales ~cubically in the\n\
    \ bit length, which is why tests and benches default to 128-bit toy\n\
    \ groups -- all algorithms are size-agnostic)"


(* ------------------------------------------------------------------ *)
(* TPUT: payload batching x pipelined agreement throughput sweep       *)
(* ------------------------------------------------------------------ *)

type tput_run = {
  tp_delivered : int;
  tp_rounds : int;
  tp_steps : int;
  tp_messages : int;
  tp_bytes : int;
  tp_progress : (int * int) list;
      (* (sim steps so far, cumulative payloads delivered at party 0) *)
  tp_ok : bool;
}

let run_tput ~structure ~seed ~payloads ~(abc_policy : Abc.policy) () :
    tput_run =
  let kr = keyring structure in
  let n = AS.n structure in
  let sim =
    Sim.create ~policy:Sim.Random_order ~size:(Link.frame_size (Abc.msg_size kr))
      ~obs:(Bench_out.obs ()) ~n ~seed ()
  in
  let logs = Array.make n [] in
  let progress = ref [] in
  let sim_ref = ref None in
  let nodes =
    Stack.deploy_abc ~policy:abc_policy ~sim ~keyring:kr
      ~tag:(Printf.sprintf "tput-%d" seed)
      ~deliver:(fun me p ->
        logs.(me) <- p :: logs.(me);
        if me = 0 then
          match !sim_ref with
          | Some s -> progress := (Sim.steps s, List.length logs.(0)) :: !progress
          | None -> ())
      ()
  in
  sim_ref := Some sim;
  List.iteri (fun i p -> Abc.broadcast nodes.(i mod n) p) payloads;
  let want = List.length (List.sort_uniq compare payloads) in
  let all = List.init n Fun.id in
  let tp_ok =
    try
      Sim.run sim ~max_steps:2_000_000
        ~until:(fun () ->
          List.for_all (fun i -> List.length logs.(i) >= want) all);
      List.for_all (fun i -> List.length logs.(i) >= want) all
    with Sim.Out_of_steps _ -> false
  in
  let m = Sim.metrics sim in
  { tp_delivered = List.length logs.(0);
    tp_rounds =
      List.fold_left (fun acc i -> max acc (Abc.current_round nodes.(i))) 0 all;
    tp_steps = Sim.steps sim;
    tp_messages = m.Metrics.messages_sent;
    tp_bytes = m.Metrics.bytes_sent;
    tp_progress = List.rev !progress;
    tp_ok }

(* A sweep row breaks the TPUT invariant with no rounds, a delivered
   count outside [0, payloads] or a progress curve that falls. *)
let tput_broken ~payloads r =
  let rec falls last = function
    | [] -> false
    | (_, d) :: rest -> d < last || falls d rest
  in
  r.tp_rounds < 1 || r.tp_delivered < 0 || r.tp_delivered > payloads
  || falls 0 r.tp_progress

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
        let r = run_tput ~structure ~seed:4242 ~payloads ~abc_policy () in
        let rounds = max 1 r.tp_rounds in
        let payloads_per_round =
          float_of_int r.tp_delivered /. float_of_int rounds
        in
        let bytes_per_round =
          float_of_int r.tp_bytes /. float_of_int rounds
        in
        let decided_per_1k_steps =
          1000.0 *. float_of_int r.tp_delivered
          /. float_of_int (max 1 r.tp_steps)
        in
        Printf.printf "%-6d %-7d %-10d %-7d %-9d %-11.2f %-10.1f %-9.2f%s\n"
          b w r.tp_delivered r.tp_rounds r.tp_steps payloads_per_round
          (bytes_per_round /. 1024.0) decided_per_1k_steps
          (if r.tp_ok then "" else "  [FAILED]");
        Bench_out.gate
          (Bench_out.tput_gate ~batch:b ~window:w ~decided_per_1k_steps
             ~rounds:r.tp_rounds ~delivered:r.tp_delivered);
        let row =
          Obs_json.Obj
            [ ("batch", Obs_json.Int b);
              ("window", Obs_json.Int w);
              ("payloads", Obs_json.Int payloads_n);
              ("delivered", Obs_json.Int r.tp_delivered);
              ("rounds", Obs_json.Int r.tp_rounds);
              ("steps", Obs_json.Int r.tp_steps);
              ("messages", Obs_json.Int r.tp_messages);
              ("bytes", Obs_json.Int r.tp_bytes);
              ("payloads_per_round", Obs_json.Float payloads_per_round);
              ("bytes_per_round", Obs_json.Float bytes_per_round);
              ("decided_per_1k_steps", Obs_json.Float decided_per_1k_steps);
              ("all_delivered", Obs_json.Bool r.tp_ok);
              ( "progress",
                Obs_json.Arr
                  (List.map
                     (fun (s, d) ->
                       Obs_json.Arr [ Obs_json.Int s; Obs_json.Int d ])
                     r.tp_progress) )
            ]
        in
        ( (b, w), decided_per_1k_steps, row,
          tput_broken ~payloads:payloads_n r ))
      grid
  in
  let breaks = List.filter (fun (_, _, _, broken) -> broken) results in
  Bench_out.gate
    [ Report.must Report.Lower "tput invariant breaks" ~limit:0.0
        (float (List.length breaks)) ];
  Bench_out.put "tput"
    (Obs_json.Arr (List.map (fun (_, _, row, _) -> row) results));
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
    Bench_out.put "speedup_decided_per_1k_steps" (Obs_json.Float speedup)
  | _ -> ())

let experiments =
  [ ("F1", f1); ("F2", f2); ("E1", e1); ("E2", e2); ("G1", g1); ("R1", r1); ("R2", r2); ("M1", m1);
    ("M2", m2); ("O1", o1); ("O2", o2); ("S1", s1); ("S2", s2); ("C1", c1);
    ("C2", c2); ("TPUT", tput) ]

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--small" then begin
          small := true;
          false
        end
        else true)
      (match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [])
  in
  let requested =
    match args with [] -> List.map fst experiments | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> Bench_out.with_experiment ~id:name f
      | None -> Printf.printf "unknown experiment %S\n" name)
    requested;
  print_newline ()
