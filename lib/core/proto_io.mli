(** Environment handed to every protocol instance: identity, keyring,
    typed message transport, and the observability handle.

    A parent protocol embeds a child with {!embed} by wrapping the
    child's messages into its own message type, so a whole deployment
    has a single top-level wire type and runs unchanged under the
    network simulator or any other transport.

    Per-layer attribution: {!field-send} / {!field-broadcast} count
    messages and bytes against the registry of [obs] under the
    environment's [layer] label (counters ["messages"] and ["bytes"]
    with label [layer=<name>]); [raw_send] / [raw_broadcast] reach the
    transport uncounted, and [unsequenced] goes around the link endpoint
    as well.  [embed ~layer] builds the child's raw
    transport from the parent's raw transport, so every wire message is
    counted exactly once, at the layer that originated it.  With the
    default [Obs.noop] the counting wrappers are the raw functions
    themselves — the uninstrumented path costs nothing. *)

type memo
(** A replica's verified-signature memo for one scope (one ABC round).
    Closed when created: lookups miss and nothing is recorded until
    {!open_memo}. *)

val fresh_memo : unit -> memo
val open_memo : memo -> unit
val close_memo : memo -> unit
(** Drops every entry; the memo stays closed. *)

val memo_is_open : memo -> bool
val memo_size : memo -> int

type 'm t = {
  me : int;
  keyring : Keyring.t;
  send : int -> 'm -> unit;  (** counting send *)
  broadcast : 'm -> unit;  (** to all servers, including self; counting *)
  obs : Obs.t;  (** observability handle; [Obs.noop] by default *)
  layer : string;  (** label the counting wrappers attribute to *)
  raw_send : int -> 'm -> unit;  (** transport, bypassing the counters *)
  raw_broadcast : 'm -> unit;
  unsequenced : int -> 'm -> unit;
      (** uncounted send around the party's link endpoint, straight onto
          the network; may address client slots.  For traffic the ARQ
          channel cannot carry: catch-up requests and replies (the
          rejoiner's link state is gone) and client responses (clients
          run no link). *)
  link : resync option;
      (** the party's ARQ endpoint resynchronization hooks, [None] with
          the link layer off *)
  timer : delay:float -> (unit -> unit) -> unit;
      (** one-shot virtual-time timer for this party; a liveness aid
          only — protocol safety must never depend on it.  [embed]
          passes it through unchanged. *)
  memo : memo;
      (** the memo {!verify_signature} consults; {!make} gives every
          party its own closed one, and [embed ~memo] scopes a subtree
          to another *)
}

and resync = {
  rejoin : peer:int -> expect:int -> start:int -> unit;
      (** {!Link.rejoin} on the party's endpoint *)
  prepare_rejoin : peer:int -> int * int;
      (** {!Link.prepare_rejoin} on the party's endpoint *)
}
(** Closures rather than the endpoint itself, so a layer embedded in a
    larger message type (recovery inside the service) resynchronizes
    its parent's channel. *)

val make :
  ?obs:Obs.t ->
  ?layer:string ->
  ?bytes:('m -> int) ->
  timer:(delay:float -> (unit -> unit) -> unit) ->
  me:int ->
  keyring:Keyring.t ->
  send:(int -> 'm -> unit) ->
  broadcast:('m -> unit) ->
  unsequenced:(int -> 'm -> unit) ->
  link:resync option ->
  unit ->
  'm t
(** [layer] defaults to ["app"], [bytes] (the per-message wire-size
    estimate used by the byte counters) to [fun _ -> 0].  {!Stack.attach}
    is the one caller: a party's transport is built there and nowhere
    else. *)

val structure : 'm t -> Adversary_structure.t
val n : 'm t -> int

val embed :
  ?layer:string -> ?bytes:('c -> int) -> ?memo:memo -> 'p t -> wrap:('c -> 'p) ->
  'c t
(** Child environment whose sends wrap into the parent's message type.
    Without [~layer] the child shares the parent's layer and counters
    (its traffic routes through the parent's counting send); with
    [~layer] the child gets its own counters and size estimate, and its
    traffic bypasses the parent's.  [memo] (default: the parent's)
    is the memo the child's signature checks use. *)

(** Quorum-predicate shorthands on the deployment's structure. *)

val big_quorum : 'm t -> Pset.t -> bool
val two_cover : 'm t -> Pset.t -> bool
val contains_honest : 'm t -> Pset.t -> bool

(** {2 Signature checks}

    The one path by which protocol code checks a server's Schnorr
    signature — a signed message or a quorum-certificate share, which is
    the same thing ({!Keyring.cert_share}) — or a quorum certificate,
    whose every entry goes through {!verify_signature}.  With an open
    memo a check that this replica already passed for the same (signer,
    statement, signature), or a signature it made itself ({!sign}), is
    answered from the memo; everything else is a full {!Keyring} check,
    and only a successful one is recorded. *)

val verify_signature : 'm t -> party:int -> string -> Schnorr_sig.signature -> bool
val verify_cert : 'm t -> string -> Keyring.cert -> bool

(** {2 Own signatures}

    The one path by which protocol code signs as [io.me], a message or a
    quorum-certificate share alike.  With an open memo the signature
    enters it as it is made, so a later check of the same (me,
    statement, signature) is a hit; a different signature claiming [me]
    still gets a full check.  A closed memo records nothing. *)

val sign : 'm t -> string -> Schnorr_sig.signature
