(** The campaign table: one row per campaign [sintra run] knows — its
    name, artifact prefix, report kind, full and [--quick] presets and
    runner — and the one artifact check that [bench-check] and
    [sintra run] share, so the two can never disagree about an
    artifact. *)

(** {2 Validation} *)

val check_doc : Obs_json.t -> (string, string) result
(** {!Report.header} (the envelope, the kind's acceptance rows limited,
    the [per_run] row count), then {!Report.past_limits}: [Ok
    description] when every limited row is within its limit, [Error]
    naming each row past it otherwise. *)

val check_file : string -> (string, string) result
(** Parse, then {!check_doc}. *)

val is_artifact : string -> bool
(** A file name [bench-check] validates by default:
    [<PREFIX>_<id>.json] for [BENCH] or a campaign prefix. *)

(** {2 Campaigns} *)

type preset = { seeds : int; size : int }
(** Seeds per cell, and the stream length: payloads per run, or
    requests per run for [svc]. *)

type knobs = {
  n : int;
  t : int;
  seed_base : int;
  seeds : int;
  size : int;
  drop : float option;  (** overrides the campaign's chaos drop rate *)
}

type campaign = {
  name : string;  (** [sintra run <name>], [make <name>[-smoke|-bless]] *)
  prefix : string;  (** artifact files are [<prefix>_<id>.json] *)
  kind : Report.kind;
  default_id : string;  (** the report id without [--out] *)
  full : preset;
  quick : preset;  (** [--quick], the CI smoke *)
  run : knobs -> id:string -> progress:(int * int -> unit) -> string;
      (** Sweep, print the summary on stdout, write the artifact;
          returns its path.  The artifact's limited gate rows say
          whether the campaign passed: see {!check_doc}. *)
}

val campaigns : campaign list
(** [faults], [link] (30% drop with the link layer on), [flight] (the
    fault sweep under the flight recorder), [recov], [epoch], [svc]. *)
