(** Metrics registry: named counters, gauges and log-scale histograms
    with labels (protocol layer, instance tag, party, ...).

    Registration ([counter] / [gauge] / [histogram]) pays one hashtable
    lookup and returns a mutable handle; updates through the handle are
    single field writes, cheap enough for protocol hot paths.  The
    snapshot/diff pair is the interval algebra the bench harness uses:
    snapshot before a run, snapshot after, [diff] is the run. *)

type labels = (string * string) list
(** Label order is irrelevant: keys are canonicalized by sorting. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> ?labels:labels -> string -> counter
(** Get or create.  @raise Invalid_argument if the name+labels pair is
    already registered with a different kind. *)

val gauge : t -> ?labels:labels -> string -> gauge
val histogram : t -> ?labels:labels -> string -> Obs_histogram.t

val find_counter : t -> ?labels:labels -> string -> int option
(** The counter's current value, or [None] if no counter is registered
    under that name and labels; never registers one. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int
val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Raise the gauge to [v] if below it (high-water marks, e.g. the link
    layer's peak retransmit-buffer depth). *)

val observe : t -> ?labels:labels -> string -> float -> unit
(** Convenience: get-or-create the histogram and observe into it. *)

val reset : t -> unit
(** Zero every registered metric (registrations are kept). *)

(** {2 Snapshots} *)

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of Obs_histogram.t

type key = private { name : string; labels : labels }
type snapshot = (key * value) list

val snapshot : t -> snapshot
(** Deterministic order (sorted by name, then labels); histograms are
    private copies. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff newer older]: counters and histograms subtract (zero-valued
    entries are dropped), gauges keep the newer level, entries only in
    [older] disappear. *)

val find : snapshot -> ?labels:labels -> string -> value option
val counter_value : snapshot -> ?labels:labels -> string -> int option

val snapshot_to_json : snapshot -> Obs_json.t
(** [{"counters": [...], "gauges": [...], "histograms": [...]}] with one
    [{"name", "labels"?, "value" | "histogram"}] entry per metric. *)

val pp : Format.formatter -> t -> unit
(** One [name{labels} = value] line per metric, sorted. *)
