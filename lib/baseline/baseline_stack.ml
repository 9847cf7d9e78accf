(* Deployment glue for the two timer-driven baselines on the simulator
   (the randomized stack never uses timers): PBFT-lite, and Rampart-lite
   with the delay attack of the paper's Figure 1 row. *)

let deploy ~(sim : Pbft_lite.msg Sim.t) ~f ?(timeout = 2000.0) ~deliver () :
    Pbft_lite.t array =
  let n = Sim.n sim in
  let nodes =
    Array.init n (fun me ->
        Pbft_lite.create ~me ~n ~f
          ~send:(fun dst m -> Sim.send sim ~src:me ~dst m)
          ~broadcast:(fun m -> Sim.broadcast sim ~src:me m)
          ~set_timer:(fun ~delay cb -> Sim.set_timer sim me ~delay cb)
          ~deliver:(deliver me) ~timeout ())
  in
  Array.iteri
    (fun me node ->
      Sim.set_handler sim me (fun ~src m -> Pbft_lite.handle node ~src m))
    nodes;
  nodes

let deploy_membership ~(sim : Membership_abc.msg Sim.t) ?(timeout = 500.0) ()
    =
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

(* The attacker delays honest members 0 and 3 (the simulator's
   [Delay_victims] policy does that); member 1 backs every eviction with
   its own suspicion votes and, as sequencer, refuses to order new work,
   so the one remaining honest member keeps suspecting the silent
   victims.  It tracks its victim's state (it controls the network):
   once honest member 2 is alone with it, it equivocates in 2's current
   view. *)
let rampart_attack ~(sim : Membership_abc.msg Sim.t) nodes =
  let honest_handler ~src m = Membership_abc.handle nodes.(1) ~src m in
  let equivocations = ref 0 in
  let injected = ref (-1) in
  Sim.set_handler sim 1 (fun ~src m ->
      (match m with
      | Membership_abc.Submit _ -> ()
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
      end)
