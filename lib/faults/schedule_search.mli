(** Adversarial schedule search: a seeded hill-climber over the chaos
    step of a fault timeline ({!Sweep.timeline}) — drop / delay /
    duplication / reordering rates plus a healing-partition window —
    maximising steps-to-decide or the link layer's send-buffer peak.
    The climb evaluates one cell of the faults campaign
    ({!Campaign.campaign}): the protocol under attack with the
    silent mix.  The worst schedules found are archived as replayable
    fixtures (schema ["sintra-schedule/3"]) that the test suite re-runs,
    asserting that they reproduce their recorded score and never cost
    safety.  Fully deterministic in [params.search_seed]. *)

val seed_timeline : n:int -> Sweep.timeline
(** The climb's starting point, one [Start] chaos step with every knob
    slightly on: drop 0.02, delay 0.5, duplication and reordering 0.05,
    and the first quarter of the parties cut off over [\[50, 150)]. *)

type objective = Decide_time | Buffer_peak

val objective_label : objective -> string
(** ["decide-time"] / ["buffer-peak"]. *)

val objective_of_label : string -> objective option

type params = {
  search_seed : int;
  iters : int;
  core : Sweep.core;
      (** the searched campaign's core: [seeds] runs per evaluation
          (seeds [seed_base ..]), [size] payloads per run *)
  protocol : Campaign.protocol;
  link : bool;  (** forced on under {!Buffer_peak} *)
}

val default_params : params
(** 40 iterations, 2 evaluation seeds of 2 payloads each, n = 4 / t = 1,
    ABC, link off, 60k steps. *)

type eval = {
  e_timeline : Sweep.timeline;
  e_score : float;
      (** [Decide_time]: mean simulator steps per run plus
          [10 * max_steps] per undecided run; [Buffer_peak]: the worst
          link send-buffer depth *)
  e_safety : int;  (** safety violations seen while evaluating *)
  e_decided : int;  (** runs without a liveness violation *)
  e_runs : int;
}

type outcome = {
  o_best : eval;  (** where the climb ended *)
  o_archive : eval list;  (** distinct evaluated schedules, worst first *)
  o_evaluations : int;
}

val search :
  ?progress:(int * int * float -> unit) ->
  ?params:params ->
  objective:objective ->
  unit ->
  outcome
(** Hill-climb: mutate one parameter per iteration, accept on strict
    score improvement.  [progress (evals, budget, score)] after each
    evaluation.  The keyring is dealt once ({!Sweep.prepare}) and
    shared across all evaluations. *)

(** {2 Fixtures} *)

(** A fixture names a campaign of {!Campaign_table} ([campaign]), one
    of its cells by label ([cell]), the objective, the recorded
    [score], the [timeline] and the {!Sweep.core} it ran with ([eval]:
    [n], [t], [seeds], [seed_base], [size], [max_steps]), plus the search's
    [provenance] ([decided], [runs], [safety]). *)

val write_fixtures :
  dir:string ->
  params:params ->
  objective:objective ->
  outcome ->
  top:int ->
  string list
(** Write the [top] worst schedules as
    [dir/worst_<objective>_<rank>.json] (canonical bytes); returns the
    paths. *)

val replay : Obs_json.t -> (eval, string) result
(** Rebuild the campaign and cell a fixture names and run the cell over
    the fixture's seeds under its timeline.  A wrong schema, an unknown
    campaign or cell, a malformed timeline or one the campaign cannot
    run (a fault run takes start-time chaos steps only), [buffer-peak]
    on a campaign other than [faults] or [link], or a missing field is
    an [Error]. *)
