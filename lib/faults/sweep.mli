(** The campaign engine shared by every seed-sweep runner ({!Campaign},
    {!Rejoin}, {!Refresh}, {!Svc}).

    A campaign is a list of cells swept over consecutive seeds.  Each
    runner owns only its deployment, workload, oracles and per-run row
    JSON; this module owns the rest: the common configuration core, the
    dealt keyring, the cell × seed loop, the progress-driven outage
    trigger, the [Sim.Out_of_steps] → {!Oracle} conversion, the flight
    recorder glue, the canonical artifact writer, the validator
    combinators and the per-cell grouping of summaries. *)

(** {2 Configuration core} *)

type core = {
  seeds : int;  (** seeds [seed_base .. seed_base + seeds - 1] per cell *)
  seed_base : int;
  n : int;
  t : int;
  rsa_bits : int;
  group_bits : int;
  max_steps : int;  (** per-run simulator step bound *)
}

val core :
  ?seed_base:int ->
  ?n:int ->
  ?t:int ->
  ?rsa_bits:int ->
  ?group_bits:int ->
  seeds:int ->
  max_steps:int ->
  unit ->
  core
(** Defaults: seeds from 1, n = 4 / t = 1, toy 192-bit RSA and 128-bit
    group. *)

val core_fields : core -> (string * Obs_json.t) list
(** The configuration echo every report shares: seeds, seed_base, n, t
    and max_steps. *)

(** {2 Environment} *)

type env = { keyring : Keyring.t; obs : Obs.t }
(** The dealt keyring (start-up dominant) plus the observability
    instance every run's simulator reports into. *)

val prepare : key_offset:int -> core -> env
(** Deal the threshold keyring for [(n, t, rsa_bits, group_bits)] from
    seed [seed_base + key_offset] — each campaign keeps its own fixed
    offset, so artifacts stay reproducible per campaign. *)

(** {2 The sweep} *)

val product : 'a list -> 'b list -> ('a * 'b) list
(** Cells in row-major order. *)

val sweep :
  ?progress:(int * int -> unit) ->
  core ->
  'cell list ->
  ('cell -> seed:int -> 'r) ->
  'r list
(** Run every cell over every seed, cell-major, in execution order;
    [progress (done, total)] after every run. *)

val sum : ('a -> int) -> 'a list -> int

val group : ('r -> 'k) -> 'r list -> ('k * 'r list) list
(** Rows grouped by key, keys in first-seen order, rows in input order
    — the per-cell lines of every summary. *)

(** {2 Progress-driven faults} *)

val every : 'm Sim.t -> party:int -> period:float -> (unit -> bool) -> unit
(** Poll [tick] from [party]'s timer every [period] of virtual time
    until it returns [false].  Campaign faults are driven by stream
    progress rather than clock time: virtual round duration varies by
    orders of magnitude with the drop rate, so fixed times would land
    before the stream starts or after it ends. *)

val thresholds : down_frac:float -> up_frac:float -> int -> int * int
(** [(down, up)] progress counts for a stream of the given length:
    [down >= 1] and [up <= total - 1]. *)

val outage :
  down_frac:float ->
  up_frac:float ->
  total:int ->
  progress:(unit -> int) ->
  down:(unit -> unit) ->
  up:(unit -> unit) ->
  unit ->
  bool
(** A two-step tick for {!every}: fire [down] once [progress] crosses
    the down threshold, then [up] once it crosses the up threshold;
    [false] once both have fired. *)

(** {2 Running one simulation} *)

val run_sim :
  ?flight:Flight.recorder ->
  'm Sim.t ->
  max_steps:int ->
  until:(unit -> bool) ->
  Oracle.violation list
(** Run until [until] holds: [[]] on success, the out-of-steps liveness
    violation on a stall (noted as a flight {!Flight.Stall}). *)

val flight_begin : Flight.recorder option -> 'm Sim.t -> unit

val flight_end :
  Flight.recorder option ->
  key:Flight.run_key ->
  violations:Oracle.violation list ->
  decided:bool ->
  gating:bool ->
  decide_clock:float option ->
  steps:int ->
  buffer_peak:int ->
  unit
(** Note every safety violation as a {!Flight.Safety_trip}, then close
    the run. *)

val unless :
  bool -> ?party:int -> Oracle.severity -> string -> string ->
  Oracle.violation list
(** [unless ok severity oracle detail]: [[]] when [ok], else the single
    violation. *)

(** {2 Artifacts} *)

val envelope :
  id:string ->
  schema:string ->
  wall:float ->
  config:Obs_json.t ->
  runs:int ->
  obs:Obs.t ->
  (string * Obs_json.t) list ->
  Obs_json.t
(** The report members every campaign artifact shares — experiment,
    schema, wall_time_s, config, runs and the metrics snapshot — plus
    the campaign's own. *)

val write : string -> Obs_json.t -> string
(** Write the document canonically (sorted members, one trailing
    newline) to the path; returns the path. *)

(** {2 Validator combinators} *)

type 'a check = ('a, string) result

val ( let* ) : 'a check -> ('a -> 'b check) -> 'b check

val field : Obs_json.t -> string list -> (Obs_json.t -> 'a option) -> 'a check
(** The member at a path, converted, or an error naming the path. *)

val ensure : bool -> ('a, unit, string, unit check) format4 -> 'a
(** [ensure ok fmt ...] is [Ok ()] when [ok], else the formatted error. *)

val header : schema:string -> Obs_json.t -> int check
(** Checks the shared members — the exact schema, experiment,
    wall_time_s, a non-negative [runs] — and returns [runs]. *)

val rows :
  ?runs:int -> Obs_json.t -> string list -> (Obs_json.t -> 'a check) ->
  'a list check
(** Every row of the array at a path must pass the row check — and with
    [?runs] there must be exactly that many; errors name the path and
    the row index. *)
