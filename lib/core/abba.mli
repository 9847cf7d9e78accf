(** Asynchronous binary Byzantine agreement with a cryptographic common
    coin (Cachin–Kursawe–Shoup, PODC 2000) — the randomized primitive the
    whole architecture builds on; expected constant number of rounds.

    Properties for any corruption set in the structure and any message
    schedule: agreement (all honest decide the same bit), validity (the
    decision was proposed by an honest party — enforced by the SUPPORT
    phase: a value no honest party proposed can never gather a two-cover
    support certificate), and termination with probability one (the coin
    matches the unique certifiable value with probability ≥ 1/2 per
    round; two certifiable values would split the honest parties into
    three corruptible sets covering everything, contradicting Q{^3}). *)

type mainv = Value of bool | Abstain

type support_cert = (int * Keyring.cert_share) list

type prevote_just =
  | J_support of support_cert  (** round 1 *)
  | J_pre_cert of Keyring.cert  (** round r−1 pre-certificate for b *)
  | J_coin of Keyring.cert  (** round r−1 abstain-certificate, b = coin *)

type prevote = {
  pv_round : int;
  pv_vote : bool;
  pv_just : prevote_just;
  pv_share : Keyring.cert_share;
}

type signed_prevote = { sp_src : int; sp_pv : prevote }

type mainvote_just =
  | J_quorum of Keyring.cert
  | J_conflict of signed_prevote * signed_prevote

type mainvote = {
  mv_round : int;
  mv_value : mainv;
  mv_just : mainvote_just;
  mv_share : Keyring.cert_share;
}

type msg =
  | Support of bool * Keyring.cert_share
  | Prevote of prevote
  | Mainvote of mainvote
  | Coin_share of int * Coin.share list
  | Decide of int * bool * Keyring.cert
      (** self-contained, transferable decision certificate *)

type t

val create : io:msg Proto_io.t -> tag:string -> on_decide:(bool -> unit) -> t
(** Instances are passive until {!propose}; messages arriving earlier are
    processed and buffered, so instances may be created on first
    receipt. *)

val propose : t -> bool -> unit
val handle : t -> src:int -> msg -> unit
(** A decided instance ignores every message and keeps only its
    decision and {!current_round}. *)

val current_round : t -> int
(** After a decision: the round it was reached in (experiment R1). *)

val msg_size : Keyring.t -> msg -> int

val msg_summary : msg -> string
(** Short rendering for simulator traces. *)
