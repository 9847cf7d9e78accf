(* Cross-cutting tests: the wire codec, the simulator itself, compressed
   quorum certificates end-to-end, weighted-threshold structures, and
   randomized-schedule property tests over whole protocol runs. *)

module AS = Adversary_structure

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---------------- codec ---------------------------------------------- *)

let codec_tests =
  [ qtest "codec roundtrip" QCheck2.Gen.(list string) (fun parts ->
        Codec.decode (Codec.encode parts) = Some parts);
    qtest "codec rejects truncation"
      QCheck2.Gen.(list_size (int_range 1 5) (string_size (int_range 1 20)))
      (fun parts ->
        let enc = Codec.encode parts in
        (* dropping the last byte must never decode to the same list *)
        let cut = String.sub enc 0 (String.length enc - 1) in
        Codec.decode cut <> Some parts);
    Alcotest.test_case "codec rejects garbage" `Quick (fun () ->
        Alcotest.(check bool) "short" true (Codec.decode "abc" = None);
        Alcotest.(check bool) "bad length" true
          (Codec.decode "\xff\xff\xff\xff\xff\xff\xff\xffrest" = None);
        Alcotest.(check (option (list string))) "empty ok" (Some [])
          (Codec.decode ""))
  ]

(* ---------------- simulator ------------------------------------------ *)

let sim_tests =
  [ Alcotest.test_case "same seed, same trace" `Quick (fun () ->
        let run () =
          let sim = Sim.create ~n:3 ~seed:99 () in
          let log = ref [] in
          for i = 0 to 2 do
            Sim.set_handler sim i (fun ~src m ->
                log := (i, src, m) :: !log;
                if m < 3 then Sim.broadcast sim ~src:i (m + 1))
          done;
          Sim.send sim ~src:0 ~dst:1 0;
          Sim.run sim;
          !log
        in
        Alcotest.(check bool) "deterministic" true (run () = run ()));
    Alcotest.test_case "crashed party receives nothing" `Quick (fun () ->
        let sim = Sim.create ~n:3 ~seed:1 () in
        let got = ref 0 in
        Sim.set_handler sim 2 (fun ~src:_ (_ : int) -> incr got);
        Sim.crash sim 2;
        Sim.send sim ~src:0 ~dst:2 42;
        Sim.run sim;
        Alcotest.(check int) "no delivery" 0 !got;
        Alcotest.(check int) "counted as drop" 1 (Sim.metrics sim).Metrics.drops);
    Alcotest.test_case "fifo preserves pairwise order" `Quick (fun () ->
        let sim = Sim.create ~policy:Sim.Fifo ~n:2 ~seed:1 () in
        let log = ref [] in
        Sim.set_handler sim 1 (fun ~src:_ m -> log := m :: !log);
        List.iter (fun m -> Sim.send sim ~src:0 ~dst:1 m) [ 1; 2; 3; 4 ];
        Sim.run sim;
        Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4 ] (List.rev !log));
    Alcotest.test_case "timers fire in deadline order" `Quick (fun () ->
        let sim : int Sim.t = Sim.create ~n:1 ~seed:1 () in
        let log = ref [] in
        Sim.set_timer sim 0 ~delay:300.0 (fun () -> log := 3 :: !log);
        Sim.set_timer sim 0 ~delay:100.0 (fun () -> log := 1 :: !log);
        Sim.set_timer sim 0 ~delay:200.0 (fun () -> log := 2 :: !log);
        Sim.run sim;
        Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !log));
    Alcotest.test_case "crashed party's timers do not fire" `Quick (fun () ->
        let sim : int Sim.t = Sim.create ~n:2 ~seed:1 () in
        let fired = ref false in
        Sim.set_timer sim 1 ~delay:50.0 (fun () -> fired := true);
        Sim.crash sim 1;
        Sim.run sim;
        Alcotest.(check bool) "suppressed" false !fired);
    Alcotest.test_case "delay_victims starves victims while traffic flows"
      `Quick (fun () ->
        let sim = Sim.create ~policy:(Sim.Delay_victims (Pset.singleton 0)) ~n:3 ~seed:5 () in
        let order = ref [] in
        for i = 0 to 2 do
          Sim.set_handler sim i (fun ~src:_ (m : int) -> order := (i, m) :: !order)
        done;
        Sim.send sim ~src:1 ~dst:0 100;  (* victim-bound *)
        for k = 1 to 5 do
          Sim.send sim ~src:1 ~dst:2 k
        done;
        Sim.run sim;
        (* the victim-bound message is delivered last *)
        (match !order with
        | (0, 100) :: _ -> ()
        | _ -> Alcotest.fail "victim traffic was not delayed to the end");
        Alcotest.(check int) "all delivered" 6 (List.length !order))
  ]

(* ---------------- scheduler reference model -------------------------- *)

(* The list scheduler [Sim] used before its pending queue became an
   array, kept as an executable specification: envelopes newest first,
   [choose] over a list of candidates, [remove_nth], and chaos
   push-backs and duplicates consed onto the front.  The differential
   test drives it and [Sim] through the same random workloads and
   requires identical traces, which pins every policy (the golden
   digests only cover the campaign policies) and partition gating. *)
module Ref_sched = struct
  type env = {
    src : int;
    dst : int;
    msg : int;
    ready_at : float;
    dup : bool;
  }

  type t = {
    rng : Prng.t;
    policy : Sim.policy;
    mutable chaos : (Sim.chaos * Prng.t) option;
    mutable clock : float;
    mutable pending : env list;  (* newest first *)
    handlers : (src:int -> int -> unit) option array;
    crashed : bool array;
    mutable timers : (float * int * (unit -> unit)) list;
    mutable trace : Sim.trace_event list;  (* newest first *)
  }

  let create ~policy ~n ~seed =
    { rng = Prng.create ~seed; policy; chaos = None; clock = 0.0;
      pending = []; handlers = Array.make (n + 8) None;
      crashed = Array.make (n + 8) false; timers = []; trace = [] }

  let set_chaos t spec =
    t.chaos <- Option.map (fun spec -> (spec, Prng.split t.rng)) spec

  let set_handler t p h = t.handlers.(p) <- Some h
  let trace t = List.rev t.trace

  let crash t p =
    t.crashed.(p) <- true;
    t.timers <- List.filter (fun (_, q, _) -> q <> p) t.timers

  let fault_for (spec : Sim.chaos) ~src ~dst =
    match List.assoc_opt (src, dst) spec.links with
    | Some lf -> lf
    | None -> spec.default_link

  let cell_of cells p =
    let rec go i = function
      | [] -> -1
      | c :: rest -> if Pset.mem p c then i else go (i + 1) rest
    in
    go 0 cells

  let rec release_at (spec : Sim.chaos) ~src ~dst tau =
    match
      List.find_opt
        (fun (pa : Sim.partition) ->
          pa.from_t <= tau && tau < pa.until_t
          && cell_of pa.cells src <> cell_of pa.cells dst)
        spec.partitions
    with
    | Some pa -> release_at spec ~src ~dst pa.until_t
    | None -> tau

  let latency t = 10.0 +. (90.0 *. Prng.float t.rng)

  let send t ~src ~dst msg =
    let factor =
      match t.chaos with
      | None -> 1.0
      | Some (spec, _) -> 1.0 +. (fault_for spec ~src ~dst).delay
    in
    t.pending <-
      { src; dst; msg; ready_at = t.clock +. (latency t *. factor); dup = false }
      :: t.pending

  let set_timer t p ~delay cb =
    if not t.crashed.(p) then t.timers <- (t.clock +. delay, p, cb) :: t.timers

  let fire_due_timers t =
    let due, rest = List.partition (fun (d, _, _) -> d <= t.clock) t.timers in
    t.timers <- rest;
    List.iter
      (fun (d, party, cb) ->
        if not t.crashed.(party) then begin
          t.trace <- Sim.Timer_fired { at = d; party } :: t.trace;
          cb ()
        end)
      (List.sort (fun (a, _, _) (b, _, _) -> compare a b) due)

  let release t e =
    let tau = Float.max t.clock e.ready_at in
    match t.chaos with
    | None -> tau
    | Some (spec, _) -> release_at spec ~src:e.src ~dst:e.dst tau

  let choose t =
    match t.pending with
    | [] -> None
    | pending ->
      let all = List.mapi (fun i e -> (i, e)) pending in
      let eligible =
        if t.chaos = None then all
        else
          List.filter
            (fun (_, e) -> not (release t e > Float.max t.clock e.ready_at))
            all
      in
      (match eligible with
      | [] -> None
      | cands ->
        (match t.policy with
        | Sim.Fifo -> Some (fst (List.nth cands (List.length cands - 1)))
        | Random_order ->
          Some (fst (List.nth cands (Prng.int t.rng (List.length cands))))
        | Latency_order ->
          let best = ref 0 and best_t = ref infinity in
          List.iter
            (fun (i, e) ->
              if e.ready_at < !best_t then begin
                best := i;
                best_t := e.ready_at
              end)
            cands;
          Some !best
        | Delay_victims victims ->
          let touched e = Pset.mem e.src victims || Pset.mem e.dst victims in
          (match List.filter (fun (_, e) -> not (touched e)) cands with
          | [] -> Some (fst (List.nth cands (List.length cands - 1)))
          | free ->
            Some (fst (List.nth free (Prng.int t.rng (List.length free)))))))

  let outwaits t =
    match t.policy with
    | Fifo | Random_order | Latency_order -> false
    | Delay_victims victims ->
      t.timers <> [] && t.pending <> []
      && List.for_all
           (fun e -> Pset.mem e.src victims || Pset.mem e.dst victims)
           t.pending

  let remove_nth l k =
    let rec go i acc = function
      | [] -> invalid_arg "remove_nth"
      | x :: rest ->
        if i = k then (x, List.rev_append acc rest)
        else go (i + 1) (x :: acc) rest
    in
    go 0 [] l

  let drop t reason e =
    t.trace <-
      Sim.Dropped { at = t.clock; src = e.src; dst = e.dst; reason } :: t.trace

  let deliver t e =
    if t.crashed.(e.dst) then drop t Crashed e
    else
      match t.handlers.(e.dst) with
      | None -> drop t No_handler e
      | Some h ->
        t.trace <-
          Sim.Delivered
            { at = t.clock; src = e.src; dst = e.dst;
              summary = string_of_int e.msg }
          :: t.trace;
        h ~src:e.src e.msg

  let deliver_pending t k =
    let e, rest = remove_nth t.pending k in
    t.pending <- rest;
    t.clock <- max t.clock (release t e);
    fire_due_timers t;
    match t.chaos with
    | None -> deliver t e
    | Some (spec, crng) ->
      let lf = fault_for spec ~src:e.src ~dst:e.dst in
      if lf.reorder > 0.0 && t.pending <> [] && Prng.float crng < lf.reorder
      then
        t.pending <-
          { e with ready_at = t.clock +. (latency t *. (1.0 +. lf.delay)) }
          :: t.pending
      else if lf.drop > 0.0 && Prng.float crng < lf.drop then drop t Chaos e
      else begin
        if lf.duplicate > 0.0 && (not e.dup) && Prng.float crng < lf.duplicate
        then
          t.pending <-
            { e with
              ready_at = t.clock +. (latency t *. (1.0 +. lf.delay));
              dup = true }
            :: t.pending;
        deliver t e
      end

  (* jump to the earliest deadline, found by sorting the timers *)
  let advance t =
    match List.sort (fun (a, _, _) (b, _, _) -> compare a b) t.timers with
    | [] -> false
    | (d, _, _) :: _ ->
      t.clock <- max t.clock d;
      fire_due_timers t;
      true

  let step t =
    if outwaits t then advance t
    else
      match choose t with
      | Some k -> deliver_pending t k; true
      | None when t.pending = [] -> advance t
      | None ->
        let next_timer =
          List.fold_left (fun acc (d, _, _) -> Float.min acc d) infinity t.timers
        in
        let best = ref (-1) and best_t = ref infinity in
        List.iteri
          (fun i e ->
            let r = release t e in
            if r < !best_t then begin
              best := i;
              best_t := r
            end)
          t.pending;
        if next_timer < !best_t then begin
          t.clock <- Float.max t.clock next_timer;
          fire_due_timers t;
          true
        end
        else if !best >= 0 then (deliver_pending t !best; true)
        else false
end

module type SCHED = sig
  type t

  val create : policy:Sim.policy -> n:int -> seed:int -> t
  val set_chaos : t -> Sim.chaos option -> unit
  val set_handler : t -> int -> (src:int -> int -> unit) -> unit
  val send : t -> src:int -> dst:int -> int -> unit
  val set_timer : t -> int -> delay:float -> (unit -> unit) -> unit
  val crash : t -> int -> unit
  val step : t -> bool
  val trace : t -> Sim.trace_event list
end

module Real_sched : SCHED = struct
  type t = int Sim.t

  let create ~policy ~n ~seed =
    let sim = Sim.create ~policy ~n ~seed () in
    Sim.enable_trace sim ~summarize:string_of_int;
    sim

  let set_chaos = Sim.set_chaos
  let set_handler = Sim.set_handler
  let send = Sim.send
  let set_timer = Sim.set_timer
  let crash = Sim.crash
  let step = Sim.step
  let trace = Sim.trace
end

type sched_op =
  | Send of int * int
  | Timer of int * float
  | Crash of int
  | Steps of int

let sched_n = 4

let gen_ops rs =
  List.init
    (10 + Random.State.int rs 40)
    (fun _ ->
      match Random.State.int rs 20 with
      | 0 -> Crash (Random.State.int rs sched_n)
      | 1 | 2 | 3 ->
        Timer (Random.State.int rs sched_n, Random.State.float rs 300.0)
      | 4 | 5 | 6 -> Steps (1 + Random.State.int rs 6)
      | _ -> Send (Random.State.int rs sched_n, Random.State.int rs (sched_n + 2)))

let gen_chaos rs ~partitions : Sim.chaos =
  let rate hi = if Random.State.bool rs then 0.0 else Random.State.float rs hi in
  let fault () =
    let drop = rate 0.3 in
    let duplicate = rate 0.3 in
    let reorder = rate 0.5 in
    { Sim.drop; duplicate; reorder; delay = rate 2.0 }
  in
  let cut () =
    let from_t = Random.State.float rs 300.0 in
    let until_t =
      if Random.State.int rs 5 = 0 then infinity
      else from_t +. 1.0 +. Random.State.float rs 300.0
    in
    let cell =
      List.filter (fun _ -> Random.State.bool rs) (List.init sched_n Fun.id)
    in
    { Sim.from_t; until_t; cells = [ Pset.of_list cell ] }
  in
  let default_link = fault () in
  let links = [ ((0, 1), fault ()) ] in
  { default_link; links;
    partitions =
      (if partitions then List.init (1 + Random.State.int rs 2) (fun _ -> cut ())
       else []) }

(* Play [ops] against one scheduler; handlers and timer callbacks react
   with follow-up sends and timers drawn from a workload PRNG, which
   stays in lockstep across schedulers only while their schedules do.
   Returns the trace and the firing order of timer ids. *)
let drive (module S : SCHED) ~policy ~chaos ~seed ops =
  let s = S.create ~policy ~n:sched_n ~seed in
  S.set_chaos s chaos;
  let rs = Random.State.make [| seed |] in
  let budget = ref 80 and next_id = ref 0 and fired = ref [] in
  let fresh () = incr next_id; !next_id in
  let rec timer p ~delay =
    let id = fresh () in
    S.set_timer s p ~delay (fun () -> fired := id :: !fired; react p)
  and react p =
    if !budget > 0 then begin
      decr budget;
      match Random.State.int rs 4 with
      | 0 | 1 -> S.send s ~src:p ~dst:(Random.State.int rs (sched_n + 2)) (fresh ())
      | 2 -> timer p ~delay:(Random.State.float rs 200.0)
      | _ -> ()
    end
  in
  for p = 0 to sched_n - 1 do
    S.set_handler s p (fun ~src:_ _ -> react p)
  done;
  List.iter
    (function
      | Send (src, dst) -> S.send s ~src ~dst (fresh ())
      | Timer (p, delay) -> timer p ~delay
      | Crash p -> S.crash s p
      | Steps k -> for _ = 1 to k do ignore (S.step s) done)
    ops;
  let steps = ref 0 in
  while !steps < 20_000 && S.step s do incr steps done;
  (S.trace s, List.rev !fired)

let sched_model_tests =
  [ Alcotest.test_case "array queue schedules exactly like the list model"
      `Quick (fun () ->
        let policies =
          [ Sim.Fifo; Random_order; Latency_order;
            Delay_victims (Pset.singleton 0);
            Delay_victims (Pset.of_list [ 1; 3 ]) ]
        in
        let seen = Hashtbl.create 8 in
        List.iteri
          (fun pi policy ->
            for seed = 1 to 30 do
              List.iter
                (fun mode ->
                  let rs = Random.State.make [| seed; pi; mode |] in
                  let chaos =
                    match mode with
                    | 0 -> None
                    | 1 -> Some (gen_chaos rs ~partitions:false)
                    | _ -> Some (gen_chaos rs ~partitions:true)
                  in
                  let ops = gen_ops rs in
                  let real = drive (module Real_sched) ~policy ~chaos ~seed ops in
                  let model = drive (module Ref_sched) ~policy ~chaos ~seed ops in
                  if real <> model then
                    Alcotest.failf
                      "policy %d, seed %d, chaos mode %d: schedules differ" pi
                      seed mode;
                  List.iter
                    (fun ev ->
                      Hashtbl.replace seen
                        (match ev with
                        | Sim.Delivered _ -> "delivered"
                        | Timer_fired _ -> "timer"
                        | Dropped { reason; _ } -> Sim.drop_reason_label reason)
                        ())
                    (fst real))
                [ 0; 1; 2 ]
            done)
          policies;
        (* the workloads reach every event kind, so agreement is not vacuous *)
        Alcotest.(check (list string)) "event kinds seen"
          [ "chaos"; "crashed"; "delivered"; "no-handler"; "timer" ]
          (List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen))));
    Alcotest.test_case "a delivered or dropped envelope is not retained"
      `Quick (fun () ->
        let sim : bytes Sim.t = Sim.create ~n:3 ~seed:7 () in
        Sim.set_handler sim 1 (fun ~src:_ _ -> ());
        Sim.crash sim 2;
        let burst = 500 in
        let weak = Weak.create (2 * burst) in
        (* a burst grows the queue well past its initial capacity, then
           every message is delivered (to 1) or dropped (at crashed 2) *)
        let[@inline never] fill () =
          for i = 0 to (2 * burst) - 1 do
            let m = Bytes.make 64 'x' in
            Weak.set weak i (Some m);
            Sim.send sim ~src:0 ~dst:(1 + (i mod 2)) m
          done
        in
        fill ();
        Alcotest.(check int) "queued" (2 * burst) (Sim.pending_count sim);
        Sim.run sim;
        Alcotest.(check int) "drained" 0 (Sim.pending_count sim);
        Gc.full_major ();
        let live = ref 0 in
        for i = 0 to (2 * burst) - 1 do
          if Weak.check weak i then incr live
        done;
        Alcotest.(check int) "messages still reachable" 0 !live;
        (* the simulator itself is still alive *)
        Alcotest.(check int) "drops" burst (Sim.metrics sim).Metrics.drops);
    Alcotest.test_case "out-of-range parties are named errors" `Quick (fun () ->
        let sim : int Sim.t = Sim.create ~extra:1 ~n:2 ~seed:1 () in
        let raises name f =
          Alcotest.check_raises name (Invalid_argument name) (fun () ->
              ignore (f ()))
        in
        List.iter
          (fun p ->
            raises "Sim.set_timer" (fun () ->
                Sim.set_timer sim p ~delay:1.0 ignore);
            raises "Sim.crash" (fun () -> Sim.crash sim p);
            raises "Sim.is_crashed" (fun () -> Sim.is_crashed sim p);
            raises "Sim.send: src" (fun () -> Sim.send sim ~src:p ~dst:0 0))
          [ -1; 3 ];
        (* the last slot (a client) is in range for all of them *)
        Sim.set_timer sim 2 ~delay:1.0 ignore;
        Sim.send sim ~src:2 ~dst:0 0;
        Alcotest.(check bool) "in range" false (Sim.is_crashed sim 2))
  ]

(* ---------------- compressed certificates end-to-end ------------------ *)

let compressed_tests =
  [ Alcotest.test_case "quorum certs: compressed mode round trip" `Quick
      (fun () ->
        let kr =
          Keyring.deal ~rsa_bits:192 ~cert_mode:Keyring.Compressed_mode
            ~seed:9001 (AS.threshold ~n:4 ~t:1)
        in
        let stmt = "compressed-statement" in
        let shares =
          List.map (fun p -> (p, Keyring.cert_share kr ~party:p stmt)) [ 0; 1; 2 ]
        in
        List.iter
          (fun (p, s) ->
            Alcotest.(check bool) "share ok" true
              (Keyring.verify_cert_share kr ~party:p stmt s))
          shares;
        (match Keyring.make_cert kr stmt shares with
        | None -> Alcotest.fail "cert not formed"
        | Some cert ->
          Alcotest.(check bool) "verifies" true (Keyring.verify_cert kr stmt cert);
          Alcotest.(check bool) "wrong statement fails" false
            (Keyring.verify_cert kr "other" cert);
          (* compressed certificates are constant-size RSA values *)
          Alcotest.(check bool) "small" true (Keyring.cert_size kr cert < 64));
        (* two shares are below the n-t quorum *)
        Alcotest.(check bool) "sub-quorum refused" true
          (Keyring.make_cert kr stmt (List.filteri (fun i _ -> i < 2) shares)
          = None));
    Alcotest.test_case "abc runs in compressed-certificate mode" `Quick
      (fun () ->
        let kr =
          Keyring.deal ~rsa_bits:192 ~cert_mode:Keyring.Compressed_mode
            ~seed:9002 (AS.threshold ~n:4 ~t:1)
        in
        let sim = Sim.create ~n:4 ~seed:77 () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:"compressed"
            ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
        in
        Abc.broadcast nodes.(0) "compact-1";
        Abc.broadcast nodes.(2) "compact-2";
        Sim.run sim
          ~until:(fun () -> Array.for_all (fun l -> List.length l >= 2) logs);
        Array.iter
          (fun l ->
            Alcotest.(check (list string)) "same order" (List.rev logs.(0))
              (List.rev l))
          logs)
  ]

(* ---------------- weighted thresholds -------------------------------- *)

let weighted_tests =
  [ Alcotest.test_case "weighted threshold structure via logical parties"
      `Quick (fun () ->
        (* the paper: "traditional weighted thresholds ... can be obtained
           by allocating several logical parties to one physical party".
           Weights 2,1,1,1,1 with quorum 5 of 6: corruptible = weight <= 1. *)
        let f = Monotone_formula.weighted_threshold ~weights:[ 2; 1; 1; 1; 1 ] ~k:2 in
        let s = AS.of_access_formula ~n:5 f in
        (* any single light party is corruptible; the heavy party alone is
           qualified *)
        Alcotest.(check bool) "heavy alone qualified" true
          (AS.is_qualified s (Pset.singleton 0));
        Alcotest.(check bool) "light alone corruptible" true
          (AS.is_corruptible s (Pset.singleton 3));
        Alcotest.(check bool) "two lights qualified" true
          (AS.is_qualified s (Pset.of_list [ 1; 2 ]));
        (* LSSS over the weighted formula *)
        let q = Bignum.of_string "170141183460469231731687303715884105727" in
        let scheme = Lsss.build ~modulus:q f in
        let rng = Prng.create ~seed:3 in
        let shares = Lsss.share scheme rng ~secret:(Bignum.of_int 777) in
        (match Lsss.reconstruct scheme shares (Pset.singleton 0) with
        | Some v -> Alcotest.(check bool) "heavy recovers" true (Bignum.to_int_opt v = Some 777)
        | None -> Alcotest.fail "heavy party must reconstruct");
        Alcotest.(check bool) "light cannot" true
          (Lsss.reconstruct scheme shares (Pset.singleton 4) = None))
  ]

(* ---------------- protocol property tests ----------------------------- *)

let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:1000 (AS.threshold ~n:4 ~t:1))
let misc_keyrings : (string, Keyring.t) Hashtbl.t = Hashtbl.create 2

let property_tests =
  [ qtest ~count:12 "abc total order holds for random seeds and crashes"
      QCheck2.Gen.(pair int (int_bound 4))
      (fun (seed, crash_choice) ->
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed () in
        let logs = Array.make 4 [] in
        let nodes =
          Stack.deploy_abc ~sim ~keyring:kr ~tag:(Printf.sprintf "prop-%d" seed)
            ~deliver:(fun me p -> logs.(me) <- p :: logs.(me)) ()
        in
        let crashed = if crash_choice < 4 then Some crash_choice else None in
        (match crashed with Some c -> Sim.crash sim c | None -> ());
        let honest =
          List.filter (fun i -> Some i <> crashed) (List.init 4 Fun.id)
        in
        List.iteri
          (fun k p -> Abc.broadcast nodes.(List.nth honest (k mod 3)) p)
          [ "pa"; "pb"; "pc" ];
        (try
           Sim.run sim ~max_steps:600_000
             ~until:(fun () ->
               List.for_all (fun i -> List.length logs.(i) >= 3) honest)
         with Sim.Out_of_steps _ -> ());
        let ok_delivery =
          List.for_all (fun i -> List.length logs.(i) = 3) honest
        in
        let ok_order =
          List.for_all
            (fun i -> List.rev logs.(i) = List.rev logs.(List.hd honest))
            honest
        in
        ok_delivery && ok_order);
    qtest ~count:4 "abba agrees over example1 under random seeds"
      QCheck2.Gen.int
      (fun seed ->
        let s1 = Canonical_structures.example1 () in
        let kr =
          match Hashtbl.find_opt misc_keyrings "ex1" with
          | Some kr -> kr
          | None ->
            let kr = Keyring.deal ~rsa_bits:192 ~seed:2001 s1 in
            Hashtbl.add misc_keyrings "ex1" kr;
            kr
        in
        let sim = Sim.create ~n:9 ~seed () in
        let decisions = Array.make 9 None in
        let nodes =
          Stack.deploy_abba ~sim ~keyring:kr
            ~tag:(Printf.sprintf "mx-%d" seed)
            ~on_decide:(fun me b -> decisions.(me) <- Some b) ()
        in
        (* crash one whole class (a corruptible set) at random *)
        let classes = Canonical_structures.example1_classes in
        let victim = List.nth classes (abs seed mod List.length classes) in
        List.iter (Sim.crash sim) victim;
        Array.iteri
          (fun i node ->
            if not (List.mem i victim) then Abba.propose node (i mod 2 = 0))
          nodes;
        (try Sim.run sim ~max_steps:600_000 with Sim.Out_of_steps _ -> ());
        let honest = List.filter (fun i -> not (List.mem i victim)) (List.init 9 Fun.id) in
        let ds = List.filter_map (fun i -> decisions.(i)) honest in
        List.length ds = List.length honest
        && (match ds with d :: r -> List.for_all (( = ) d) r | [] -> false));
    qtest ~count:10 "coin is consistent under random share subsets"
      QCheck2.Gen.(pair (string_size (int_range 1 12)) (int_bound 1000))
      (fun (name, salt) ->
        let kr = Lazy.force kr41 in
        let coin = kr.Keyring.coin in
        let name = name ^ string_of_int salt in
        let shares =
          List.init 4 (fun i -> (i, Coin.generate_share coin ~party:i ~name))
        in
        let v at =
          Coin.combine coin ~name ~avail:(Pset.of_list at)
            (List.filter (fun (i, _) -> List.mem i at) shares)
            ()
        in
        v [ 0; 1 ] = v [ 2; 3 ] && v [ 0; 3 ] = v [ 1; 2 ] && v [ 0; 1 ] <> None)
  ]

let suite =
  ( "misc",
    codec_tests @ sim_tests @ sched_model_tests @ compressed_tests @ weighted_tests
    @ property_tests )
