(** The campaign engine shared by every seed-sweep runner ({!Campaign},
    {!Rejoin}, {!Refresh}, {!Svc}).

    A campaign is one value, a {!campaign}: its cells swept over
    consecutive seeds, a run function that takes the fault timeline as
    an argument, and its own per-run fields, gate rows and constants.
    Each runner builds that value from the one configuration every
    campaign has, a {!core}, and owns only its deployment, workload,
    oracles and constants; this module owns the rest: the dealt
    keyring, the cell × seed loop, the totals, the report with its
    configuration echo, the head of every per-run row and its summary,
    the fault-timeline interpreter, the [Sim.Out_of_steps] → {!Oracle}
    conversion and the {!Flight} recorder, which records every run of
    every sweep.  The report layout and writer are {!Report}'s; the
    artifact path and the timed write-and-check are
    {!Campaign_table}'s. *)

(** {2 Configuration} *)

type core = {
  seeds : int;  (** seeds [seed_base .. seed_base + seeds - 1] per cell *)
  seed_base : int;
  n : int;
  t : int;
  size : int;  (** the stream per run: payloads, or requests for [svc] *)
  drop : float option;  (** overrides the runner's chaos drop rate *)
  max_steps : int option;  (** overrides the runner's per-run step bound *)
}
(** The one configuration of every campaign.  Everything else a runner
    needs is one of its constants, and a test picks cells by filtering
    the campaign's [cells]. *)

(** {2 The run environment} *)

type env = {
  keyring : Keyring.t;
  obs : Obs.t;
  flight : Flight.recorder;  (** records every run, over [obs] *)
}
(** The dealt keyring (start-up dominant), the observability instance
    every run's simulator reports into, and the flight recorder. *)

(** {2 Fault timelines}

    Every campaign's faults are one value that this module interprets:
    an ordered list of steps, each a trigger plus an action.

    - A trigger is [Start], or [Progress f]: [progress () >= f * total]
      for the runner's stream, clamped to [\[1, total - 1\]].  Faults
      follow stream progress, not clock time, since virtual round
      duration varies by orders of magnitude with the drop rate.
    - Step [k] fires once its trigger holds and step [k - 1] has
      {e settled}: crash, isolate, heal and chaos at once; an epoch
      action once every live replica reaches its target epoch; a revive
      once the victim reaches the current epoch.  A poll fires one
      trigger group: the next step plus the following steps with the
      same trigger, each once its predecessor settles.
    - On every poll where no step fires, until the timeline settles,
      the runner's [nudge] runs with the latest step's action. *)

type trigger = Start | Progress of float  (** fraction in (0, 1) *)
type target = All | All_but_victim

type action =
  | Crash  (** crash the victim *)
  | Revive  (** revive the victim *)
  | Isolate  (** an open-ended partition around the victim *)
  | Heal  (** restore the last installed chaos spec *)
  | Chaos of Sim.chaos  (** install a chaos spec *)
  | Refresh  (** proactive refresh to the next epoch, same members *)
  | Reshare of target  (** reshare to all members, or all but the victim *)

type step = { at : trigger; act : action }
type timeline = step list

val lossy : float -> Sim.chaos
(** [Sim.benign_chaos] with this drop rate on every link. *)

val timeline_json : timeline -> Obs_json.t
(** The one encoding: [[{"at": "start" | f, "do": action}, ...]] where
    the action is one of ["crash"], ["revive"], ["isolate"], ["heal"],
    ["refresh"], ["reshare"], ["reshare-all-but-victim"] or ["chaos"]
    with its ["spec"] (["until": null] for an open-ended partition). *)

val timeline_of_json : Obs_json.t -> (timeline, string) result
(** An unknown action, a [Progress] outside (0, 1) or a missing field is
    an [Error]. *)

val pp_timeline : Format.formatter -> timeline -> unit
(** The timeline's JSON encoding, on one line. *)

type 'm faults
(** A timeline being interpreted in one simulation. *)

val start : env -> ?victim:int -> 'm Sim.t -> timeline -> 'm faults
(** Begin the run: stamp the flight recorder's trace with the
    simulator's clock, then install the leading [Start] chaos specs now,
    where a runner deploys its network (installation splits the
    scheduler's PRNG); the rest waits for {!drive}, which a timeline of
    such steps alone never needs.  [victim] is the party crash, revive
    and isolate act on. *)

val drive :
  'm faults ->
  monitor:int ->
  period:float ->
  total:int ->
  progress:(unit -> int) ->
  ?epoch:(int -> int) ->
  ?nudge:(action -> unit) ->
  ?tick:(unit -> bool) ->
  (action -> unit) ->
  unit
(** Fire what is ready, then poll from [monitor]'s timer every [period].
    The handler runs after the interpreter's own effect (crash, chaos,
    isolate and heal act on the simulator; revive and the epoch actions
    are the handler's alone).  [epoch p] is party [p]'s epoch (default
    0).  [tick] is the runner's own per-poll work; polling continues
    while the timeline is unsettled or [tick] returns [true]. *)

val settled : 'm faults -> bool
(** Every step fired and the last one settled. *)

(** {2 Sweeping a campaign} *)

type totals = { runs : int; safety : int; liveness : int; steps : int }
(** Safety and liveness violations and simulator steps summed over a
    sweep's runs. *)

type ('cell, 'run) campaign = {
  kind : Report.kind;
  core : core;
  max_steps : int;  (** per-run step bound: [core.max_steps] or the runner's *)
  key_offset : int;
      (** the keyring is dealt from seed [seed_base + key_offset]: each
          campaign keeps its own, so artifacts stay reproducible *)
  cells : 'cell list;
      (** swept in order, each over every seed; a test keeps some with
          [{ c with cells = List.filter ... c.cells }] *)
  label : 'cell -> string;  (** unique per cell, e.g. ["ca/crash-rejoin"] *)
  timeline : 'cell -> timeline;  (** the cell's default faults *)
  run_one : env -> 'cell -> seed:int -> timeline -> 'run;
      (** one fully determined run of the cell under the timeline *)
  violations : 'run -> Oracle.violation list;
  steps : 'run -> int;
  row : 'run -> (string * Obs_json.t) list;
      (** the run's own fields of its [per_run] row, after the head
          {!to_json} writes *)
  close : env -> totals -> 'run list -> Report.gate list;
      (** after the sweep: the campaign's gate rows *)
  constants : (string * Obs_json.t) list;
      (** the runner's own settings, echoed in [config] after the core
          and the cells *)
}
(** A seed-sweep campaign: what a runner owns, as one value. *)

val prepare : ('c, 'r) campaign -> env
(** Deal the keyring (toy 192-bit RSA, 128-bit group) and create the
    flight recorder over a fresh [obs].
    Runs of one environment share its keyring, so repeated evaluations
    (the schedule search) deal once. *)

val run_cell : ('c, 'r) campaign -> env -> 'c -> seed:int -> 'r
(** One run of the cell under its default timeline, begun and closed
    in the flight recorder under the cell's label and the seed (a run
    made by calling [run_one] directly, as the schedule search does, is
    not recorded and not traced): a stall
    ({!Oracle.is_stall}) and every safety violation are its anomalies. *)

val find_cell : ('c, 'r) campaign -> string -> 'c option
(** The cell with this label. *)

type ('cell, 'run) report = {
  campaign : ('cell, 'run) campaign;
  env : env;
  results : ('cell * int * 'run) list;
      (** each run with its cell and seed, in execution order *)
  totals : totals;
  gate : Report.gate list;
}

val sweep :
  ?progress:(int * int -> unit) -> ('c, 'r) campaign -> ('c, 'r) report
(** {!prepare}, then {!run_cell} for every cell over every seed,
    cell-major; [progress (done, total)] after every run.  The gate is
    the campaign's [close] followed by {!Flight.summarize}. *)

val runs : ('c, 'r) report -> 'r list

val config_json : ('c, 'r) campaign -> Obs_json.t
(** The configuration echo: the core (with the step bound in force),
    then [cells], each cell's [label] with its [timeline]
    ({!timeline_json}), in order, then the runner's [constants]. *)

val to_json : id:string -> wall:float -> ('c, 'r) report -> Obs_json.t
(** The campaign's {!Report}: the gate rows, one [per_run] row per run,
    {!config_json} under [config] and the flight recorder's
    {!Flight.records} under [anomalies].  Every [per_run] row starts with
    the same head — [cell] (the label), [seed], [safety] and [liveness]
    (violation counts), [steps] and [violations] (the run's every
    violation: [oracle], [severity], [party] or null, [detail]) — then
    the runner's [row] fields. *)

val pp_summary : Format.formatter -> ('c, 'r) report -> unit
(** One line per cell (label, runs, safety and liveness violations,
    steps), the totals, then every gate row with its limit. *)

val product : 'a list -> 'b list -> ('a * 'b) list
(** Cells in row-major order. *)

val sum : ('a -> int) -> 'a list -> int

(** {2 Running one simulation} *)

val stream :
  'm Sim.t -> victim:int -> 'p list -> (int -> 'p -> unit) -> unit
(** Submit the payloads one per 6.0 of virtual time, round-robin from
    every server but the victim, so the timeline lands mid-stream (a crashed
    submitter would silently shrink the expected total). *)

val run_sim :
  ?retry:(unit -> unit) ->
  'm Sim.t ->
  max_steps:int ->
  until:(unit -> bool) ->
  Oracle.violation list
(** Run until [until] holds: [[]] on success, the out-of-steps liveness
    violation on a stall.  When the network quiesces short of [until],
    [retry] (if given) nudges it and the run resumes, at most three
    times. *)

val unless :
  bool -> ?party:int -> Oracle.severity -> string -> string ->
  Oracle.violation list
(** [unless ok severity oracle detail]: [[]] when [ok], else the single
    violation. *)
