(** Post-run safety/liveness invariant checkers.

    Oracles inspect per-party outcome arrays (slot [i] = party [i]),
    restricted to an [honest] set, after a simulated run has gone
    quiescent.  [Safety] violations falsify properties that must hold
    under {e every} schedule and corruption in the structure; [Liveness]
    violations only falsify the paper's claims when channels were
    reliable, so campaigns under lossy chaos specs report them
    separately and gate only on safety. *)

type severity = Safety | Liveness

type violation = {
  oracle : string;  (** e.g. ["abba-agreement"], ["total-order"] *)
  severity : severity;
  party : int option;  (** offending honest party, when attributable *)
  detail : string;
}

val severity_label : severity -> string
(** ["safety"] / ["liveness"]. *)

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

(** {2 Safety oracles} *)

val agreement :
  ?name:string ->
  honest:Pset.t ->
  show:('a -> string) ->
  'a option array ->
  violation list
(** All honest parties that decided must have decided the same value. *)

val abba_validity :
  honest:Pset.t -> proposals:bool array -> bool option array -> violation list
(** If every honest party proposed the same bit, no honest decision may
    be the other bit. *)

val total_order :
  ?show:(string -> string) -> honest:Pset.t -> string list array -> violation list
(** No honest delivery log contains duplicates, and any two honest logs
    are prefix-comparable. *)

(** {2 Liveness oracles} *)

val all_decided :
  ?name:string -> honest:Pset.t -> 'a option array -> violation list
(** Every honest party decided before quiescence. *)

val totality :
  ?name:string -> honest:Pset.t -> expected:int -> int array -> violation list
(** Every honest party delivered at least [expected] payloads. *)

val out_of_steps :
  ?detail:string -> at_clock:float -> pending:int -> timers:int -> unit ->
  violation
(** The liveness violation recording a [Sim.Out_of_steps] stall;
    [detail] carries the stall probe's protocol-level diagnostics
    (per-round in-flight counts under pipelining). *)

val is_stall : violation -> bool
(** The violation is {!out_of_steps}'. *)

(** {2 Protocol bundles} *)

val check_abba :
  honest:Pset.t -> proposals:bool array -> bool option array -> violation list
(** Agreement + validity + termination over ABBA decisions. *)

val check_abc :
  honest:Pset.t -> expected:int -> string list array -> violation list
(** Total order + totality over ABC delivery logs. *)

val check_recovery :
  honest:Pset.t -> expected:int -> string list array -> violation list
(** Total order + totality over {e digest histories}
    ([Abc.delivered_digests]), which survive checkpoint truncation —
    the whole-order agreement check for crash-rejoin and partition-heal
    runs, recovered party included. *)

val count_safety : violation list -> int
val count_liveness : violation list -> int
