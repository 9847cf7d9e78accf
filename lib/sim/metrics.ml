(* Counters collected by the network simulator; the message-complexity
   experiments (EXPERIMENTS.md, M1) read these.

   Two views of the same events.  The plain fields count this one
   simulator's traffic from its creation.  When the simulator is created
   with an active [Obs.t], each event is also added to that handle's
   registry (layer "sim"), plus a message-size histogram; registering a
   name twice returns the same counter, so the registry view is
   cumulative over every simulator that shares the handle — that is
   what the bench harness snapshots. *)

type sink = {
  s_messages : Obs_registry.counter;
  s_bytes : Obs_registry.counter;
  s_deliveries : Obs_registry.counter;
  s_drops : Obs_registry.counter;
  s_chaos_drops : Obs_registry.counter;
  s_chaos_dups : Obs_registry.counter;
  s_chaos_reorders : Obs_registry.counter;
  s_size : Obs_histogram.t;
}

type t = {
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable deliveries : int;
  mutable drops : int;  (* all undelivered: crashed dst, no handler, chaos *)
  mutable chaos_drops : int;  (* the chaos-policy share of [drops] *)
  mutable chaos_dups : int;
  mutable chaos_reorders : int;
  sink : sink option;
}

let make_sink obs =
  let labels = [ ("layer", "sim") ] in
  { s_messages = Obs.counter obs ~labels "messages_sent";
    s_bytes = Obs.counter obs ~labels "bytes_sent";
    s_deliveries = Obs.counter obs ~labels "deliveries";
    s_drops = Obs.counter obs ~labels "drops";
    s_chaos_drops = Obs.counter obs ~labels "chaos_drops";
    s_chaos_dups = Obs.counter obs ~labels "chaos_dups";
    s_chaos_reorders = Obs.counter obs ~labels "chaos_reorders";
    s_size = Obs.histogram obs ~labels "msg_bytes" }

let create ?(obs = Obs.noop) () =
  { messages_sent = 0;
    bytes_sent = 0;
    deliveries = 0;
    drops = 0;
    chaos_drops = 0;
    chaos_dups = 0;
    chaos_reorders = 0;
    sink = (if Obs.active obs then Some (make_sink obs) else None) }

let incr_sent t ~bytes =
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  match t.sink with
  | None -> ()
  | Some s ->
    Obs_registry.incr s.s_messages;
    Obs_registry.incr ~by:bytes s.s_bytes;
    Obs_histogram.observe s.s_size (float_of_int bytes)

let incr_deliveries t =
  t.deliveries <- t.deliveries + 1;
  match t.sink with
  | None -> ()
  | Some s -> Obs_registry.incr s.s_deliveries

let incr_drops t =
  t.drops <- t.drops + 1;
  match t.sink with
  | None -> ()
  | Some s -> Obs_registry.incr s.s_drops

let incr_chaos_drops t =
  t.chaos_drops <- t.chaos_drops + 1;
  match t.sink with
  | None -> ()
  | Some s -> Obs_registry.incr s.s_chaos_drops

let incr_chaos_dups t =
  t.chaos_dups <- t.chaos_dups + 1;
  match t.sink with
  | None -> ()
  | Some s -> Obs_registry.incr s.s_chaos_dups

let incr_chaos_reorders t =
  t.chaos_reorders <- t.chaos_reorders + 1;
  match t.sink with
  | None -> ()
  | Some s -> Obs_registry.incr s.s_chaos_reorders

(* Registered counters are shared handles owned by the registry, so
   "reset" means driving them back to zero, not replacing them. *)
