(* The optimistic protocol of Section 6 in action: a sequencer fast path
   orders payloads at a fraction of the cost of full agreement; when the
   sequencer is killed mid-stream, the replicas complain, agree on the
   exact cut-over point, and finish the job with the randomized protocol
   — the already-delivered prefix is preserved everywhere.

     dune exec examples/optimistic_ordering.exe *)

let () =
  print_endline "== optimistic atomic broadcast: fast path + safe fallback ==";
  let structure = Adversary_structure.threshold ~n:4 ~t:1 in
  let keyring = Keyring.deal ~rsa_bits:192 ~seed:5 structure in
  let sim =
    Sim.create ~size:(Link.frame_size (Optimistic_abc.msg_size keyring)) ~n:4 ~seed:17 ()
  in
  let logs = Array.make 4 [] in
  let nodes =
    Stack.deploy ~sim ~keyring
      ~make:(fun me io ->
        Optimistic_abc.create ~io ~tag:"demo"
          ~timeout:4000.0
          ~deliver:(fun p -> logs.(me) <- p :: logs.(me))
          ())
      ~handle:Optimistic_abc.handle ()
  in

  print_endline "\n-- phase 1: sequencer (server 0) healthy --";
  Optimistic_abc.broadcast nodes.(1) "order #1: 10 widgets";
  Optimistic_abc.broadcast nodes.(2) "order #2: 3 gadgets";
  Optimistic_abc.broadcast nodes.(3) "order #3: 1 gizmo";
  Sim.run sim
    ~until:(fun () -> Array.for_all (fun l -> List.length l >= 3) logs);
  let m = Sim.metrics sim in
  Printf.printf "3 payloads ordered on the fast path: %d messages, %d kB\n"
    m.Metrics.messages_sent (m.Metrics.bytes_sent / 1024);
  Array.iteri
    (fun i node ->
      Printf.printf "  server %d: mode=%s, fast deliveries=%d\n" i
        (match Optimistic_abc.mode node with
        | Optimistic_abc.Fast -> "fast"
        | Optimistic_abc.Switching -> "switching"
        | Optimistic_abc.Fallback -> "fallback")
        (Optimistic_abc.fast_delivered_count node))
    nodes;

  print_endline "\n-- phase 2: the sequencer crashes --";
  Sim.crash sim 0;
  Optimistic_abc.broadcast nodes.(1) "order #4: emergency restock";
  Optimistic_abc.broadcast nodes.(2) "order #5: cancel gizmo";
  let honest = [ 1; 2; 3 ] in
  Sim.run sim
    ~until:(fun () ->
      List.for_all (fun i -> List.length logs.(i) >= 5) honest);
  Sim.run sim;
  Printf.printf "complaints -> agreed cut-over -> randomized fallback\n";
  List.iter
    (fun i ->
      Printf.printf "  server %d (mode=%s) delivered:\n" i
        (match Optimistic_abc.mode nodes.(i) with
        | Optimistic_abc.Fast -> "fast"
        | Optimistic_abc.Switching -> "switching"
        | Optimistic_abc.Fallback -> "fallback");
      List.iteri (fun k p -> Printf.printf "    %d. %s\n" k p) (List.rev logs.(i)))
    honest;
  let reference = List.rev logs.(1) in
  let agree = List.for_all (fun i -> List.rev logs.(i) = reference) honest in
  Printf.printf "orders identical on all surviving servers: %b\n" agree;
  if not agree then exit 1
