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
(** A proposer's CBC is built on its first message (or, for our own, by
    {!propose}); [create] builds none.  Once decided, the instance keeps
    only its winner, its permutation and its proposal CBCs, each packed
    to its three flags (echoed, sent FINAL, delivered) once at rest.
    Every message but a proposal CBC's is dropped; a late one rebuilds
    its CBC from the flags, which echoes a late SEND once and verifies a
    late FINAL, and packs it again. *)

val settled : t -> bool
(** Decided, with every proposal CBC packed, echoed and delivered: the
    instance ignores every message it can still receive, so its owner
    may drop it. *)

val permutation : t -> int array option
(** The candidate examination order, once the permutation coin has
    combined ([None] before).  It outlives the decision. *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string
