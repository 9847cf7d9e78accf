(** Deployment glue: one protocol node per server on the simulator.

    The simulator's wire type is ['msg Link.frame].  With the link
    layer off (the default) every message travels as [Link.Raw] — an
    unsequenced passthrough with identical message count and delivery
    order to an unframed transport, so link-off deployments behave
    bit-for-bit like the pre-link stack.  Passing [?link] interposes a
    reliable {!Link} endpoint per party (sequencing, acks, timer-driven
    retransmission), which restores liveness under lossy chaos.

    Corrupt a party by crashing it ([Sim.crash]), replacing its handler
    with a malicious one ([Sim.set_handler] / [Sim.wrap_handler]), or by
    passing [?wrap] at deployment time — the injection point the
    Byzantine behaviour library (lib/faults) uses, which avoids any
    window where the honest handler could run first.  [wrap] operates at
    the payload level, below any link endpoint: a corrupted party still
    acks and deduplicates, because the link is transport infrastructure
    rather than protocol logic (ack withholding is modelled as chaos
    loss towards the victim).  The keyring record is shared, so a
    corrupted handler models full corruption including key exposure. *)

type ('msg, 'node) deployment
(** One deployment's parties: the node array (updated in place by
    {!revive}) and how to attach a fresh node to a slot. *)

val attach :
  ?layer:string ->
  ?bytes:('msg -> int) ->
  ?link:Link.policy ->
  ?on_link:(int -> 'msg Link.t -> unit) ->
  ?wrap:(int -> 'msg Sim.handler -> 'msg Sim.handler) ->
  sim:'msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  make:(int -> 'msg Proto_io.t -> 'node) ->
  handle:('node -> src:int -> 'msg -> unit) ->
  unit ->
  ('msg, 'node) deployment
(** The one party-wiring path every deployment takes.  Per party, in
    slot order: the {!Link} endpoint (with [?link]; [on_link me ep]
    sees it), then the {!Proto_io.t}, then [make me io], then the
    handler — [wrap me honest] when given, unwrapping Raw/Data frames
    with the link off and dispatching through the endpoint with it on.
    The io carries the party's timer, its counted sends, the Raw
    [unsequenced] send (which may address client slots) and, with the
    link on, the endpoint's rejoin hooks.  A layer passes in only its
    node constructor and handler; per-layer settings live in the
    [make] closure. *)

val nodes : ('msg, 'node) deployment -> 'node array

val revive : ('msg, 'node) deployment -> int -> 'node
(** Un-crash a slot ({!Sim.recover}), attach a fresh amnesiac node —
    honest even if the dead incarnation was wrapped — and replace it in
    {!nodes}.  The caller adds its own post-revive step (catch-up,
    chain pull). *)

val probe_abc : ('msg, 'node) deployment -> ('node -> Abc.t) -> unit
(** Install {!abc_stall_summary} over the deployment's current nodes as
    the simulator's stall probe. *)

val deploy :
  ?layer:string ->
  ?bytes:('msg -> int) ->
  ?link:Link.policy ->
  ?on_link:(int -> 'msg Link.t -> unit) ->
  ?wrap:(int -> 'msg Sim.handler -> 'msg Sim.handler) ->
  sim:'msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  make:(int -> 'msg Proto_io.t -> 'node) ->
  handle:('node -> src:int -> 'msg -> unit) ->
  unit ->
  'node array
(** [nodes (attach ...)].  Each node's [Proto_io.t] carries the
    simulator's observability handle ([Sim.obs]); [layer]/[bytes] feed
    its per-layer counters.  [wrap me honest] is applied to every
    party's handler before it is installed (identity by default).  With
    [?link], [on_link me ep] exposes each party's link endpoint as it is
    created (introspection for tests: in-flight depth, backlog,
    retransmit counts).  The
    [deploy_*] conveniences below set layer and size (layers ["rbc"],
    ["cbc"], ["abba"], ["vba"], ["abc"], ["scabc"], with the matching
    [msg_size]) and pass [?wrap] / [?link] through. *)

type 'msg client_io = {
  c_send : int -> 'msg -> unit;  (** to one server, Raw-framed *)
  c_send_all : 'msg -> unit;  (** to every server *)
  c_timer : delay:float -> (unit -> unit) -> unit;
  c_clock : unit -> float;  (** the simulator's virtual clock *)
  c_obs : Obs.t;
  c_n : int;  (** server count *)
}
(** What a client needs from the deployment: addressed/broadcast sends,
    a virtual-time timer for resend schedules, the clock for latency
    measurement, and the observability handle. *)

val client_endpoint :
  sim:'msg Link.frame Sim.t ->
  slot:int ->
  handle:(src:int -> 'msg -> unit) ->
  unit ->
  'msg client_io
(** Attach a client to simulator slot [slot] (must be >= n: clients live
    outside the replica group).  Client traffic travels as [Link.Raw] in
    both directions — clients run no ARQ; their loss recovery is
    protocol-level resend against server-side execution dedup.  The
    installed handler unwraps Raw and Data frames and ignores ACKs.
    Raises [Invalid_argument] if [slot] names a server. *)

val deploy_rbc :
  ?wrap:(int -> Rbc.msg Sim.handler -> Rbc.msg Sim.handler) ->
  ?link:Link.policy ->
  sim:Rbc.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  sender:int ->
  deliver:(int -> string -> unit) ->
  unit ->
  Rbc.t array

val deploy_cbc :
  ?wrap:(int -> Cbc.msg Sim.handler -> Cbc.msg Sim.handler) ->
  ?link:Link.policy ->
  sim:Cbc.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  sender:int ->
  ?validate:(string -> bool) ->
  deliver:(int -> string -> Keyring.cert -> unit) ->
  unit ->
  Cbc.t array

val deploy_abba :
  ?wrap:(int -> Abba.msg Sim.handler -> Abba.msg Sim.handler) ->
  ?link:Link.policy ->
  ?on_link:(int -> Abba.msg Link.t -> unit) ->
  sim:Abba.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  on_decide:(int -> bool -> unit) ->
  unit ->
  Abba.t array

val deploy_vba :
  ?wrap:(int -> Vba.msg Sim.handler -> Vba.msg Sim.handler) ->
  ?link:Link.policy ->
  sim:Vba.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  ?validate:(string -> bool) ->
  on_decide:(int -> winner:int -> string -> unit) ->
  unit ->
  Vba.t array

val abc_stall_summary : Abc.t array -> string
(** Per-party, per-round in-flight diagnostics
    ("p0[r3:2,r4:1 backlog 5] ..." — round:proposals-collected, then
    the party's {!Abc.backlog} of unproposed payloads); [deploy_abc]
    installs it as the
    simulator's stall probe so [Sim.Out_of_steps] reports where a
    pipelined run was stuck. *)

val deploy_abc :
  ?wrap:(int -> Abc.msg Sim.handler -> Abc.msg Sim.handler) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  ?on_link:(int -> Abc.msg Link.t -> unit) ->
  sim:Abc.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  deliver:(int -> string -> unit) ->
  unit ->
  Abc.t array
(** Also installs {!abc_stall_summary} over the deployed nodes as the
    simulator's stall probe.  [policy] (default {!Abc.default_policy})
    is applied identically to every party, as batching requires. *)

val deploy_scabc :
  ?wrap:(int -> Scabc.msg Sim.handler -> Scabc.msg Sim.handler) ->
  ?policy:Abc.policy ->
  ?link:Link.policy ->
  sim:Scabc.msg Link.frame Sim.t ->
  keyring:Keyring.t ->
  tag:string ->
  deliver:(int -> label:string -> string -> unit) ->
  unit ->
  Scabc.t array
