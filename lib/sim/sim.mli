(** Discrete-event simulator of an asynchronous network under adversarial
    scheduling — the paper's Section 2 model, where "the network is the
    adversary": the scheduling policy is the adversary's strategy, which
    makes liveness and safety claims testable by quantifying over seeds
    and policies.

    On top of the scheduling policy, an optional {!chaos} specification
    injects link-level faults (probabilistic drop / duplication /
    deferral with per-link rates) and timed partition schedules, all
    drawn from a PRNG split off the simulator's seed, so faulty runs are
    exactly as reproducible as benign ones.  Probabilistic drops step
    outside the paper's reliable-channel model: under a lossy spec only
    safety claims remain meaningful (see lib/faults).

    Virtual time exists only to drive the benign latency model and the
    timers of timeout-based baselines; the randomized protocols never
    read the clock. *)

type party = int

type policy =
  | Fifo  (** deliver in send order *)
  | Random_order  (** uniformly random pending message *)
  | Latency_order  (** benign WAN: deliver by simulated latency *)
  | Delay_victims of Pset.t
      (** adversarial: traffic from/to the victims is delivered only when
          nothing else is pending, and pending timers are out-waited
          first — the Section 2.2 "delay longer than the timeout"
          attack *)

(** {2 Chaos: link faults and partition schedules} *)

type link_fault = {
  drop : float;  (** P(a delivery attempt silently loses the message) *)
  duplicate : float;
      (** P(a second copy is enqueued with fresh latency); duplicates are
          never duplicated again, so amplification is bounded *)
  reorder : float;
      (** P(the chosen message is pushed back with fresh latency instead
          of being delivered) — extra reordering beyond the policy; a
          lone pending message is never deferred *)
  delay : float;
      (** extra latency as a multiplier: every latency drawn on this
          link becomes [latency * (1 + delay)].  Deterministic (no PRNG
          draw), in [0, 1000]; 0 reproduces prior schedules
          bit-for-bit.  The adversarial schedule search climbs over this
          knob together with the probabilistic rates. *)
}

val no_fault : link_fault
(** All rates zero. *)

type partition = {
  from_t : float;  (** virtual-time start of the cut *)
  until_t : float;  (** heal time (window is [\[from_t, until_t)]) *)
  cells : Pset.t list;
      (** parties in different cells cannot exchange messages while the
          window is active; parties listed in no cell share one implicit
          cell *)
}

type chaos = {
  default_link : link_fault;  (** applied to every (src, dst) pair *)
  links : ((party * party) * link_fault) list;
      (** per-link overrides of [(src, dst)]; the first entry of a
          repeated pair wins *)
  partitions : partition list;
}

val benign_chaos : chaos
(** No faults, no partitions — the identity spec to extend. *)

type 'msg handler = src:party -> 'msg -> unit

type drop_reason =
  | Crashed  (** destination crashed *)
  | No_handler  (** destination slot has no handler installed *)
  | Chaos  (** probabilistic chaos drop *)

val drop_reason_label : drop_reason -> string
(** ["crashed"], ["no-handler"], ["chaos"] — also the [tag] of the
    ["drop"] observability point every drop path emits. *)

(** Optional event trace, for debugging and CLI inspection. *)
type trace_event =
  | Delivered of { at : float; src : party; dst : party; summary : string }
  | Dropped of { at : float; src : party; dst : party; reason : drop_reason }
  | Timer_fired of { at : float; party : party }

type 'msg t

val create :
  ?policy:policy ->
  ?extra:int ->
  ?size:('msg -> int) ->
  ?obs:Obs.t ->
  n:int ->
  seed:int ->
  unit ->
  'msg t
(** [n] server slots plus [extra] client slots (default 8); [size]
    estimates wire bytes for the metrics.  {!metrics} counts this
    simulator's traffic alone; [obs] (default [Obs.noop]) also receives
    every count under layer ["sim"], summed over all simulators that
    share the handle, plus drop/timer points when a tracer is
    installed.  Protocol layers built on this simulator pick the handle
    up through {!obs}. *)

val n : 'msg t -> int
val clock : 'msg t -> float
val metrics : 'msg t -> Metrics.t

val obs : 'msg t -> Obs.t
(** The observability handle passed at creation ([Obs.noop] when none). *)

val steps : 'msg t -> int
(** Completed steps (deliveries / timer advances) over the simulator's
    lifetime — the denominator of throughput-per-step measurements. *)

val set_policy : 'msg t -> policy -> unit

val set_stall_probe : 'msg t -> (unit -> string) -> unit
(** Install a protocol-level diagnostics probe: its output becomes the
    [detail] of {!Out_of_steps} when a run exceeds its step bound (e.g.
    per-round in-flight counts of a pipelined atomic broadcast —
    {!Stack.deploy_abc} installs one).  Exceptions in the probe are
    swallowed; the last installed probe wins. *)

val set_chaos : 'msg t -> chaos option -> unit
(** Install (or clear) the chaos specification.  The fault PRNG is split
    off the scheduler's PRNG at installation time, so fault draws do not
    perturb the delivery schedule.  Raises [Invalid_argument] on rates
    outside [0, 1], empty partition windows, or an override naming a
    party outside the simulator's slots. *)

val set_handler : 'msg t -> party -> 'msg handler -> unit
(** Attach (or replace — e.g. with a Byzantine behaviour) the message
    handler of a slot.  Raises [Invalid_argument] on a crashed slot:
    re-arming delivery while the crash flag still suppresses timers
    would create a zombie, so the lifecycle is explicit — {!recover}
    first, then install the fresh handler. *)

val wrap_handler :
  'msg t -> party -> ('msg handler -> 'msg handler) -> unit
(** Replace a slot's handler with a wrapper of the currently installed
    one (a no-op handler when none is installed) — the hook tests and
    experiments use to watch a deployed party's traffic or script an
    attack of their own while keeping its honest logic callable.  The
    Byzantine behaviour library corrupts at deployment instead
    ([Stack.deploy ?wrap]). *)

val enable_trace : 'msg t -> summarize:('msg -> string) -> unit
(** Start recording {!trace_event}s; [summarize] renders each message. *)

val trace : 'msg t -> trace_event list
(** Recorded events, oldest first. *)

val crash : 'msg t -> party -> unit
(** All subsequent deliveries to the party are dropped, its pending
    timers are purged, and later {!set_timer} calls for it are inert.
    Raises [Invalid_argument "Sim.crash"] on a party outside the
    simulator's slots, as {!is_crashed}, {!send} and {!set_timer} do. *)

val is_crashed : 'msg t -> party -> bool

val recover : 'msg t -> party -> unit
(** Un-crash a party.  The slot comes back amnesiac: the crash purged
    its timers and recovery drops its handler, so nothing of the old
    incarnation can fire; install a fresh handler (and run whatever
    catch-up protocol the stack provides) before the party participates
    again.  Messages dropped while it was down stay dropped.  Raises
    [Invalid_argument] if the party is not crashed. *)

val send : 'msg t -> src:party -> dst:party -> 'msg -> unit
val broadcast : 'msg t -> src:party -> 'msg -> unit
(** To every server slot (0..n-1), including [src]. *)

val set_timer : 'msg t -> party -> delay:float -> (unit -> unit) -> unit
(** One-shot virtual-time timer.  A no-op for crashed parties, and a
    party's crash purges whatever timers it had pending. *)

val pending_count : 'msg t -> int

val timer_count : 'msg t -> int
(** Timers set but not yet fired. *)

val step : 'msg t -> bool
(** Deliver one message / fire due timers; [false] when quiescent. *)

exception
  Out_of_steps of {
    at_clock : float;
    pending : int;
    timers : int;
    detail : string;
  }
(** The step bound was exceeded while traffic remained: carries the
    virtual clock, pending-message count, live timer count and the
    stall probe's diagnostics ([""] when no probe is installed) at the
    stall, so stuck runs are debuggable. *)

val run : ?max_steps:int -> ?until:(unit -> bool) -> 'msg t -> unit
(** Step until [until ()] holds or the network is quiescent; raises
    {!Out_of_steps} if the bound (default 2,000,000) is hit first. *)
