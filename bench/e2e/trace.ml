(* The traced pass: every delivered frame is classified by its
   constructor into one of fourteen layer classes and its handler call
   is timed from outside the library.  Handler spans are leaves (a
   handler only enqueues sends and timers), so whatever the run loop
   spends outside them is the simulator's own time: scheduling plus
   timer callbacks.

   Spans go to preallocated buffers; per-class totals are kept apart
   from the buffers, so they stay exact when the buffers fill up. *)

let classes =
  [| "link.ack"; "service.request"; "service.query"; "client.response";
     "abc.request"; "abc.proposal"; "cbc"; "vba.coin"; "vba.final";
     "abba.vote"; "abba.coin"; "scabc.dec"; "recovery.ckpt";
     "recovery.transfer" |]

(* Indices into [classes]. *)
let of_abc : Abc.msg -> int = function
  | Abc.Request _ -> 4
  | Abc.Proposal _ -> 5
  | Abc.Vba_msg (_, Vba.Proposal_cbc _) -> 6
  | Abc.Vba_msg (_, Vba.Perm_share _) -> 7
  | Abc.Vba_msg (_, Vba.Final_fwd _) -> 8
  | Abc.Vba_msg (_, Vba.Abba_msg (_, Abba.Coin_share _)) -> 10
  | Abc.Vba_msg
      (_, Vba.Abba_msg (_, (Abba.Support _ | Abba.Prevote _ | Abba.Mainvote _
                           | Abba.Decide _))) -> 9

let classify : Service.msg Link.frame -> int = function
  | Link.Ack _ -> 0
  | Link.Raw m | Link.Data { payload = m; _ } -> (
    match m with
    | Service.Request _ -> 1
    | Service.Query _ -> 2
    | Service.Response _ -> 3
    | Service.Engine
        ( Service.Abc_m a
        | Service.Scabc_m (Scabc.Abc_msg a)
        | Service.Recov_m (Recovery.App a) ) -> of_abc a
    | Service.Engine (Service.Scabc_m (Scabc.Dec_share _)) -> 11
    | Service.Engine (Service.Recov_m (Recovery.Ckpt_share _)) -> 12
    | Service.Engine (Service.Recov_m (Recovery.Fetch _ | Recovery.State _))
      -> 13)

let capacity = 1 lsl 20

type t = {
  cls : Bytes.t;
  slot : Bytes.t;
  src : Bytes.t;
  t0 : Float.Array.t;
  t1 : Float.Array.t;
  mutable len : int;
  mutable dropped : int;
  busy : float array;  (** wall seconds per class *)
  msgs : int array;  (** deliveries per class *)
  mutable steps : int;
  mutable queue_sum : int;
  mutable queue_samples : int;
  mutable queue_max : int;
}

let create () =
  let k = Array.length classes in
  { cls = Bytes.create capacity; slot = Bytes.create capacity;
    src = Bytes.create capacity; t0 = Float.Array.create capacity;
    t1 = Float.Array.create capacity; len = 0; dropped = 0;
    busy = Array.make k 0.; msgs = Array.make k 0; steps = 0;
    queue_sum = 0; queue_samples = 0; queue_max = 0 }

let now = Unix.gettimeofday

(* Wrap one slot's installed handler with a timed, classified one. *)
let wrap tr sim slot =
  Sim.wrap_handler sim slot (fun h ~src frame ->
      let c = classify frame in
      let t0 = now () in
      h ~src frame;
      let t1 = now () in
      tr.busy.(c) <- tr.busy.(c) +. (t1 -. t0);
      tr.msgs.(c) <- tr.msgs.(c) + 1;
      let i = tr.len in
      if i < capacity then begin
        Bytes.unsafe_set tr.cls i (Char.unsafe_chr c);
        Bytes.unsafe_set tr.slot i (Char.unsafe_chr slot);
        Bytes.unsafe_set tr.src i (Char.unsafe_chr src);
        Float.Array.unsafe_set tr.t0 i t0;
        Float.Array.unsafe_set tr.t1 i t1;
        tr.len <- i + 1
      end
      else tr.dropped <- tr.dropped + 1)

(* Called once per scheduler step; samples the event queue every 64. *)
let on_step tr sim () =
  tr.steps <- tr.steps + 1;
  if tr.steps land 63 = 0 then begin
    let q = Sim.pending_count sim + Sim.timer_count sim in
    tr.queue_sum <- tr.queue_sum + q;
    tr.queue_samples <- tr.queue_samples + 1;
    if q > tr.queue_max then tr.queue_max <- q
  end

let busy_total tr = Array.fold_left ( +. ) 0. tr.busy

(* JSON lines, times in microseconds from the start of the run loop:
   one header, then delivery spans, then request spans. *)
let write tr ~path ~workload ~seed (r : Workload.result) =
  let us t = Float.to_int (Float.round ((t -. r.Workload.loop_start) *. 1e6)) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"kind\":\"header\",\"workload\":%S,\"seed\":%d,\"delivery_spans\":%d,\"dropped_spans\":%d,\"requests\":%d,\"loop_us\":%d}\n"
    workload seed tr.len tr.dropped (Array.length r.done_) (us r.loop_end);
  for i = 0 to tr.len - 1 do
    Printf.fprintf oc
      "{\"kind\":\"delivery\",\"class\":%S,\"slot\":%d,\"src\":%d,\"start_us\":%d,\"end_us\":%d}\n"
      classes.(Char.code (Bytes.get tr.cls i))
      (Char.code (Bytes.get tr.slot i))
      (Char.code (Bytes.get tr.src i))
      (us (Float.Array.get tr.t0 i))
      (us (Float.Array.get tr.t1 i))
  done;
  Array.iter
    (fun (c : Workload.completion) ->
      Printf.fprintf oc
        "{\"kind\":\"request\",\"id\":%d,\"op\":%S,\"due_vms\":%.3f,\"done_vms\":%.3f,\"submit_us\":%d,\"done_us\":%d}\n"
        c.c_idx (if c.c_read then "read" else "write") c.c_due c.c_done
        (us c.c_submit_wall) (us c.c_done_wall))
    r.done_;
  close_out oc
