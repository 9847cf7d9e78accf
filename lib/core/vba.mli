(** Multi-valued validated Byzantine agreement (Cachin, Kursawe, Petzold
    & Shoup) — agreement on values from arbitrary domains constrained by
    an external-validity predicate, so the decision is always acceptable
    to honest parties (paper, Section 3).

    Every party consistent-broadcasts its proposal; a threshold coin
    picks a random examination order; one binary agreement per candidate
    ("do I hold its proposal?") selects the winner, whose transferable
    consistent-broadcast certificate propagates it to everyone.  Expected
    constant number of binary agreements. *)

type msg =
  | Proposal_cbc of int * Cbc.msg
  | Perm_share of Coin.share list
  | Abba_msg of int * Abba.msg
  | Final_fwd of int * string * Keyring.cert

type t

val create :
  io:msg Proto_io.t ->
  tag:string ->
  ?validate:(string -> bool) ->
  on_decide:(winner:int -> string -> unit) ->
  unit ->
  t

val propose : t -> string -> unit
(** The value must satisfy the validity predicate.  Only the first call
    counts: a later one sends nothing and keeps the first value. *)

val handle : t -> src:int -> msg -> unit

val permutation : t -> int array option
(** The candidate examination order, once the permutation coin has
    combined ([None] before, and after {!retire}). *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string

val retire : t -> unit
(** Release the agreement state — proposals, permutation shares, ABBA
    children (each {!Abba.retire}d) — keeping only the decided
    candidate.  For checkpoint GC of decided rounds. *)
