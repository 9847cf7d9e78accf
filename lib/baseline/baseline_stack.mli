(** Deployment glue for the timer-driven baselines (they need the
    simulator's timers, which the randomized stack never uses). *)

val deploy :
  sim:Pbft_lite.msg Sim.t ->
  f:int ->
  ?timeout:float ->
  deliver:(int -> string -> unit) ->
  unit ->
  Pbft_lite.t array
(** One PBFT-lite replica per slot. *)

val deploy_membership :
  sim:Membership_abc.msg Sim.t ->
  ?timeout:float ->
  unit ->
  Membership_abc.t array * string list array
(** One Rampart-lite member per slot, failure detectors armed; the
    second array holds each member's delivered payloads, newest first.
    [timeout] (default 500) is the suspicion timeout. *)

val rampart_attack :
  sim:Membership_abc.msg Sim.t -> Membership_abc.t array -> unit
(** The paper's Figure 1 attack on dynamic membership, run over
    {!deploy_membership}'s members with honest members 0 and 3 delayed
    ([Sim.Delay_victims]): member 1 turns Byzantine — it swallows
    [Submit] relays, votes to evict 0 and 3 in every view, and once
    honest member 2's view is down to itself and member 1, orders
    ["evil-A"] (with its own ack) to 2 and ["evil-B"] at the same
    position to 0 and 3 (up to 10 times).  Member 2 then delivers
    ["evil-A"], which no other honest member delivers at that
    position. *)
