(** The campaign table: one row per campaign [sintra run] knows — its
    name, artifact prefix, full and [--quick] presets and the
    {!Sweep.campaign} its runner builds from a {!Sweep.core} — the one timed
    sweep-summarize-write path every row runs, and the one artifact
    check that [bench-check] and [sintra run] share, so the two can
    never disagree about an artifact. *)

(** {2 Validation} *)

val check_doc : Obs_json.t -> (string, string) result
(** {!Report.header} (the envelope and its one layout, the kind's
    acceptance rows limited, the [per_run] row count), then
    {!Report.past_limits}: [Ok description] when every limited row is
    within its limit, [Error] naming each row past it otherwise. *)

val check_file : string -> (string, string) result
(** Parse, then {!check_doc}. *)

val is_artifact : string -> bool
(** A file name [bench-check] validates by default:
    [<PREFIX>_<id>.json] for [BENCH] or a campaign prefix. *)

(** {2 Campaigns} *)

type preset = { seeds : int; size : int }
(** Seeds per cell, and the stream length ({!Sweep.core}'s [size]). *)

type packed = Packed : ('cell, 'run) Sweep.campaign -> packed

type campaign = {
  name : string;  (** [sintra run <name>], [make <name>[-smoke|-bless]] *)
  prefix : string;
      (** artifact files are [<prefix>_<id>.json], or [<prefix>.json]
          for an id equal to the name ([sintra run svc] writes
          [BENCH_SVC.json]) *)
  default_id : string;  (** the report id without [--out] *)
  full : preset;
  quick : preset;  (** [--quick], the CI smoke *)
  campaign : Sweep.core -> packed;
}

val campaigns : campaign list
(** [faults], [link] (30% drop with the link layer on), [recov],
    [epoch], [svc]. *)

val find : string -> campaign option

val run :
  campaign ->
  Sweep.core ->
  id:string ->
  progress:(int * int -> unit) ->
  string * (string, string) result
(** Sweep, print {!Sweep.pp_summary} and the wall time on stdout, write
    the artifact and {!check_file} it: the path and the check. *)
