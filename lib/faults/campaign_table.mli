(** The campaign table: one row per campaign [sintra run] knows — its
    name, artifact prefix, schema, full and [--quick] presets and runner
    — and the schema → validator dispatch that [bench-check] and
    [sintra run] share, so a campaign can never write a report its own
    [bench-check] rejects. *)

(** {2 Validation} *)

val schemas : (string * (Obs_json.t -> (string, string) result)) list
(** Every artifact schema ([sintra-bench/1] plus each campaign's) with
    its check: [Ok description] for a valid document, [Error why]
    otherwise. *)

val check_doc : Obs_json.t -> (string, string) result
(** Dispatch on the document's ["schema"] member. *)

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
  schema : string;
  default_id : string;  (** the report id without [--out] *)
  full : preset;
  quick : preset;  (** [--quick], the CI smoke *)
  run :
    knobs -> id:string -> progress:(int * int -> unit) -> string * bool;
      (** Sweep, print the summary on stdout, write the artifact;
          returns its path and whether the campaign's acceptance gate
          held. *)
}

val campaigns : campaign list
(** [faults], [link] (30% drop with the link layer on), [flight] (the
    fault sweep under the flight recorder), [recov], [epoch], [svc]. *)
