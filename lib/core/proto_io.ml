(* Environment handed to every protocol instance: identity, keys, typed
   message transport, and the observability handle.

   A parent protocol embeds a child by wrapping the child's message type
   into its own with {!embed}; the whole stack therefore has a single
   top-level wire type per deployment and runs unchanged under the
   network simulator or any other transport.

   Per-layer attribution: [send]/[broadcast] count messages and bytes
   against the environment's layer label, while [raw_send] /
   [raw_broadcast] reach the transport uncounted.  [unsequenced] is the
   one path around the party's link endpoint (catch-up traffic whose
   ARQ state is gone, client replies), and [link] the endpoint's rejoin
   hooks; {!Stack.attach} builds both and [embed] only wraps them.
   [embed ~layer] builds the child's raw transport from the *parent's*
   raw transport, so each wire message is counted exactly once — at the
   layer that originated it, with that layer's size estimate — no matter
   how deep the wrapping goes.  With the default [Obs.noop] the counting
   wrappers *are* the raw functions, so the uninstrumented path costs
   nothing. *)

module AS = Adversary_structure

(* The verified-signature memo.  An entry (signer, statement,
   signature) is recorded only after a full check of exactly that triple
   succeeded on this replica, or when this replica made that signature
   itself ({!sign}), so a hit repeats a deterministic check this replica
   passed or would pass: no accept/reject decision can change.
   Statements compare byte for byte and signatures by value, never by a
   digest or a truncated encoding, so a forged signature or a statement
   one byte away never matches a genuine entry.  The bucket is chosen by
   the signer and the signature's challenge, so a lookup reads a long
   statement (an ABC proposal embeds its whole batch) only to compare it
   with an entry's.  A memo is closed (no lookups, no inserts) until its
   owner opens it; closing drops every entry. *)
module Key = struct
  type t = { signer : int; stmt : string; sg : Schnorr_sig.signature }

  let equal a b =
    a.signer = b.signer
    && Bignum.equal a.sg.Schnorr_sig.c b.sg.Schnorr_sig.c
    && Bignum.equal a.sg.Schnorr_sig.z b.sg.Schnorr_sig.z
    && String.equal a.stmt b.stmt

  let hash k = Hashtbl.hash (k.signer, k.sg.Schnorr_sig.c)
end

module Memo_tbl = Hashtbl.Make (Key)

(* An open memo keeps one copy of each statement its entries hold: up to
   n signers endorse the same ABBA or CBC statement, and their entries
   share it. *)
type entries = { tbl : unit Memo_tbl.t; stmts : (string, string) Hashtbl.t }
type memo = { mutable table : entries option }

let fresh_memo () = { table = None }

let open_memo m =
  if m.table = None then
    m.table <- Some { tbl = Memo_tbl.create 64; stmts = Hashtbl.create 16 }

let close_memo m = m.table <- None
let memo_is_open m = m.table <> None

let memo_size m =
  match m.table with Some e -> Memo_tbl.length e.tbl | None -> 0

type 'm t = {
  me : int;
  keyring : Keyring.t;
  send : int -> 'm -> unit;
  broadcast : 'm -> unit;  (* to all servers, including self *)
  obs : Obs.t;
  layer : string;
  raw_send : int -> 'm -> unit;  (* transport, bypassing the counters *)
  raw_broadcast : 'm -> unit;
  unsequenced : int -> 'm -> unit;
      (* uncounted, outside any link endpoint; may address client slots *)
  link : resync option;  (* the party's ARQ endpoint, when there is one *)
  timer : delay:float -> (unit -> unit) -> unit;
      (* one-shot virtual-time timer for this party; protocols must
         treat it as a liveness aid only *)
  memo : memo;  (* this replica's memo for the current scope *)
}

and resync = {
  rejoin : peer:int -> expect:int -> start:int -> unit;
  prepare_rejoin : peer:int -> int * int;
}

(* Counting wrappers around a raw transport.  Counter handles are
   resolved once, here; each send then costs two field increments. *)
let counted ~obs ~layer ~bytes ~fanout ~raw_send ~raw_broadcast =
  if not (Obs.active obs) then (raw_send, raw_broadcast)
  else begin
    let labels = [ ("layer", layer) ] in
    let c_msgs = Obs.counter obs ~labels "messages" in
    let c_bytes = Obs.counter obs ~labels "bytes" in
    let send dst m =
      Obs_registry.incr c_msgs;
      Obs_registry.incr ~by:(bytes m) c_bytes;
      raw_send dst m
    and broadcast m =
      Obs_registry.incr ~by:fanout c_msgs;
      Obs_registry.incr ~by:(fanout * bytes m) c_bytes;
      raw_broadcast m
    in
    (send, broadcast)
  end

let make ?(obs = Obs.noop) ?(layer = "app") ?(bytes = fun _ -> 0) ~timer ~me
    ~keyring ~send ~broadcast ~unsequenced ~link () =
  let fanout = AS.n keyring.Keyring.structure in
  let counted_send, counted_broadcast =
    counted ~obs ~layer ~bytes ~fanout ~raw_send:send ~raw_broadcast:broadcast
  in
  { me; keyring;
    send = counted_send;
    broadcast = counted_broadcast;
    obs; layer;
    raw_send = send;
    raw_broadcast = broadcast;
    unsequenced; link; timer;
    memo = fresh_memo () }

let structure io = io.keyring.Keyring.structure
let n io = AS.n (structure io)

let embed ?layer ?bytes ?memo (io : 'p t) ~(wrap : 'c -> 'p) : 'c t =
  let memo = match memo with Some m -> m | None -> io.memo in
  match layer with
  | None ->
    (* Same layer as the parent: route through the parent's counting
       send, which also applies the parent's size estimate to the
       wrapped message. *)
    { me = io.me;
      keyring = io.keyring;
      send = (fun dst m -> io.send dst (wrap m));
      broadcast = (fun m -> io.broadcast (wrap m));
      obs = io.obs;
      layer = io.layer;
      raw_send = (fun dst m -> io.raw_send dst (wrap m));
      raw_broadcast = (fun m -> io.raw_broadcast (wrap m));
      unsequenced = (fun dst m -> io.unsequenced dst (wrap m));
      link = io.link;
      timer = io.timer;
      memo }
  | Some layer ->
    (* Own layer: wrap into the parent's *raw* transport so the child's
       traffic is attributed here and nowhere else. *)
    let raw_send dst m = io.raw_send dst (wrap m)
    and raw_broadcast m = io.raw_broadcast (wrap m) in
    let bytes = match bytes with Some f -> f | None -> fun _ -> 0 in
    let send, broadcast =
      counted ~obs:io.obs ~layer ~bytes ~fanout:(n io) ~raw_send
        ~raw_broadcast
    in
    { me = io.me; keyring = io.keyring; send; broadcast; obs = io.obs;
      layer; raw_send; raw_broadcast;
      unsequenced = (fun dst m -> io.unsequenced dst (wrap m));
      link = io.link; timer = io.timer; memo }

(* Predicate shorthands on the deployment's adversary structure. *)
let big_quorum io s = AS.big_quorum (structure io) s
let two_cover io s = AS.two_cover (structure io) s
let contains_honest io s = AS.contains_honest (structure io) s

(* ---------- signature checks -------------------------------------- *)

let record { tbl; stmts } ~party stmt sg =
  let stmt =
    match Hashtbl.find_opt stmts stmt with
    | Some shared -> shared
    | None ->
      Hashtbl.add stmts stmt stmt;
      stmt
  in
  Memo_tbl.replace tbl { Key.signer = party; stmt; sg } ()

(* Every protocol-level Schnorr check goes through here: the memo is
   consulted first and fed by a successful full check or by signing. *)
let verify_signature io ~party stmt sg =
  match io.memo.table with
  | None -> Keyring.verify_party_signature io.keyring ~party stmt sg
  | Some e ->
    Memo_tbl.mem e.tbl { Key.signer = party; stmt; sg }
    || Keyring.verify_party_signature io.keyring ~party stmt sg
       && begin
         record e ~party stmt sg;
         true
       end

let verify_cert io stmt cert =
  Keyring.verify_cert ~verify:(verify_signature io) io.keyring stmt cert

(* ---------- own signatures ---------------------------------------- *)

(* A replica's own signature is the deterministic Schnorr signature
   under its own key, so it verifies by construction: signing records
   it, and a later check of exactly that triple is a memo hit.  Any
   other signature claiming this signer still misses and is checked in
   full. *)
let sign io stmt =
  let sg = Keyring.sign io.keyring ~party:io.me stmt in
  Option.iter (fun e -> record e ~party:io.me stmt sg) io.memo.table;
  sg
