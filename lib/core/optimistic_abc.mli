(** Optimistic atomic broadcast (paper, Section 6; after Kursawe–Shoup):
    a sequencer-driven fast path ordering payloads by consistent
    broadcast with cumulative acknowledgement certificates — O(n)
    messages per payload, no heavyweight agreement — plus a complaint-
    triggered switch that agrees (one validated Byzantine agreement) on
    the final fast-path prefix and hands everything else to the
    randomized atomic broadcast.

    Safety never depends on timing: fast delivery of sequence s needs a
    big-quorum certificate over *cumulative* acknowledgements, so the
    agreed cut-over prefix always covers every honest delivery.  The
    complaint trigger is a message-count heuristic ([patience]); a slow
    or corrupted sequencer costs liveness of the fast path only. *)

type state_report = {
  st_party : int;
  st_prefix : int;
  st_cert : Keyring.cert option;
  st_sig : Schnorr_sig.signature;
}

type msg =
  | Submit of string
  | Seq_cbc of int * Cbc.msg
  | Ack of int * Keyring.cert_share
  | Complain of Keyring.cert_share
  | State of state_report
  | Recovery_vba of Vba.msg
  | Fetch of int
  | Fetch_reply of int * string * Keyring.cert
  | Fallback_abc of Abc.msg

type mode = Fast | Switching | Fallback

type t

val create :
  io:msg Proto_io.t ->
  tag:string ->
  ?sequencer:int ->
  ?patience:int ->
  ?timeout:float ->
  ?abc_policy:Abc.policy ->
  deliver:(string -> unit) ->
  unit ->
  t
(** Complaints fire after [timeout] (default 1500) units of virtual time
    without progress while work is pending, on [io.timer], or after
    [patience] (default 200) handled messages without it.  Both are
    liveness heuristics only — safety is independent of timing.
    [abc_policy] is the batching / pipelining policy of the randomized
    fallback atomic broadcast (the fast path is already O(n) per payload
    and is not batched). *)

val broadcast : t -> string -> unit
val handle : t -> src:int -> msg -> unit
val mode : t -> mode
val fast_delivered_count : t -> int
val delivered_log : t -> string list
val pending : t -> string list
val msg_size : Keyring.t -> msg -> int
