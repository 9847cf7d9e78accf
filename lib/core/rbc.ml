(* Reliable broadcast: an optimized variant of the Bracha-Toueg protocol
   (paper, Section 3), generalized to arbitrary Q^3 adversary structures
   by replacing the counting thresholds with the structure's monotone
   quorum predicates (Section 4.2):

     SEND  m   : the sender disseminates the payload;
     ECHO  m   : on the first SEND, everyone echoes; a big-quorum of
                 echoes for the same payload triggers READY (in the
                 threshold case, n - t echoes);
     READY m   : amplified as soon as a set that surely contains an
                 honest party sent READY (t + 1); delivered once the
                 READY senders form a two-cover set (2t + 1).

   Guarantees (for a corruption set inside the adversary structure):
   all honest parties deliver the same payload or none (consistency),
   everyone delivers if the sender is honest (validity), and if any
   honest party delivers then all do (totality). *)

type msg =
  | Send of string
  | Echo of string
  | Ready of string

type t = {
  io : msg Proto_io.t;
  sender : int;
  deliver : string -> unit;
  mutable sent_echo : bool;
  mutable sent_ready : bool;
  mutable delivered : bool;
  echoes : (string, Pset.t ref) Hashtbl.t;
  readies : (string, Pset.t ref) Hashtbl.t;
  mutable sp_echo : int;  (* open trace spans; 0 = none *)
  mutable sp_ready : int;
}

let create ~(io : msg Proto_io.t) ~sender ~deliver =
  { io;
    sender;
    deliver;
    sent_echo = false;
    sent_ready = false;
    delivered = false;
    echoes = Hashtbl.create 4;
    readies = Hashtbl.create 4;
    sp_echo = 0;
    sp_ready = 0 }

let obs t = t.io.Proto_io.obs
let me t = t.io.Proto_io.me

let broadcast t payload =
  assert (t.io.Proto_io.me = t.sender);
  t.io.Proto_io.broadcast (Send payload)

let votes table payload =
  match Hashtbl.find_opt table payload with
  | Some r -> r
  | None ->
    let r = ref Pset.empty in
    Hashtbl.add table payload r;
    r

let maybe_ready t payload =
  if not t.sent_ready then begin
    t.sent_ready <- true;
    Obs.span_end (obs t) t.sp_echo;
    t.sp_echo <- 0;
    t.sp_ready <- Obs.span_begin (obs t) ~party:(me t) ~layer:"rbc" "ready";
    t.io.Proto_io.broadcast (Ready payload)
  end

let maybe_deliver t payload =
  if not t.delivered then begin
    t.delivered <- true;
    Obs.span_end (obs t) t.sp_ready;
    t.sp_ready <- 0;
    Obs.point (obs t) ~party:(me t) ~src:t.sender ~layer:"rbc" "deliver";
    t.deliver payload
  end

let handle t ~src msg =
  match msg with
  | Send payload ->
    if src = t.sender && not t.sent_echo then begin
      t.sent_echo <- true;
      t.sp_echo <- Obs.span_begin (obs t) ~party:(me t) ~layer:"rbc" "echo";
      t.io.Proto_io.broadcast (Echo payload)
    end
  | Echo payload ->
    let v = votes t.echoes payload in
    if not (Pset.mem src !v) then begin
      v := Pset.add src !v;
      if Proto_io.big_quorum t.io !v then maybe_ready t payload
    end
  | Ready payload ->
    let v = votes t.readies payload in
    if not (Pset.mem src !v) then begin
      v := Pset.add src !v;
      if Proto_io.contains_honest t.io !v then maybe_ready t payload;
      if Proto_io.two_cover t.io !v then maybe_deliver t payload
    end

(* Approximate wire size in bytes (header + payload). *)
let msg_size = function
  | Send p | Echo p | Ready p -> 8 + String.length p

(* Short rendering for simulator traces. *)
let msg_summary = function
  | Send p -> Printf.sprintf "rbc.SEND(%d B)" (String.length p)
  | Echo p -> Printf.sprintf "rbc.ECHO(%d B)" (String.length p)
  | Ready p -> Printf.sprintf "rbc.READY(%d B)" (String.length p)
