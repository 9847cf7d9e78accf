(* Secure causal atomic broadcast (paper, Sections 3 and 5.2): atomic
   broadcast composed with the TDH2 threshold cryptosystem.

   Clients encrypt their requests under the service's single public
   encryption key; the servers atomically order the *ciphertexts* and
   only then cooperate to decrypt, so the content of a request stays
   secret until its position in the total order is fixed.  Because TDH2
   is secure against adaptive chosen-ciphertext attack, a corrupted
   server that sees a ciphertext in transit can neither read it nor
   submit a related request of its own — this is precisely the causality
   property a notary or sealed-bid service needs (a competitor cannot
   front-run a patent filing it cannot read). *)

type msg =
  | Abc_msg of Abc.msg
  | Dec_share of string * Tdh2.dec_share list  (* ciphertext digest *)

type slot = {
  position : int;
  ct : Tdh2.ciphertext;
  mutable shares : (int * Tdh2.dec_share list) list;
  mutable plaintext : string option;
  mutable sp_decrypt : int;  (* open trace span; 0 = none *)
}

type t = {
  io : msg Proto_io.t;
  deliver : label:string -> string -> unit;  (* plaintexts, total order *)
  abc : Abc.t;
  slots : (string, slot) Hashtbl.t;  (* digest -> slot *)
  mutable order : string list;  (* digests, oldest first (reversed) *)
  mutable next_position : int;
  mutable next_delivery : int;
  mutable early_shares : (string * int * Tdh2.dec_share list) list;
      (* shares that arrived before their ciphertext was ordered *)
}

let enc_sharing t = t.io.Proto_io.keyring.Keyring.enc

let rec create ?policy ~(io : msg Proto_io.t) ~tag ~deliver () : t =
  let t_ref = ref None in
  let abc =
    Abc.create ?policy
      ~io:
        (Proto_io.embed ~layer:"abc"
           ~bytes:(Abc.msg_size io.Proto_io.keyring) io
           ~wrap:(fun m -> Abc_msg m))
      ~tag:(tag ^ "/abc")
      ~deliver:(fun payload ->
        match !t_ref with Some t -> on_ordered t payload | None -> ())
      ()
  in
  let t =
    { io;
      deliver;
      abc;
      slots = Hashtbl.create 16;
      order = [];
      next_position = 0;
      next_delivery = 0;
      early_shares = [];
      }
  in
  t_ref := Some t;
  t

(* A ciphertext has been assigned its place in the total order: start
   the threshold decryption. *)
and on_ordered t (payload : string) =
  match Tdh2.ciphertext_of_bytes (enc_sharing t) payload with
  | None -> ()  (* garbage from a corrupted client: ordered but skipped *)
  | Some ct ->
    if not (Tdh2.is_valid (enc_sharing t) ct) then ()
    else begin
      let d = Sha256.digest payload in
      if not (Hashtbl.mem t.slots d) then begin
        let slot =
          { position = t.next_position;
            ct;
            shares = [];
            plaintext = None;
            sp_decrypt =
              Obs.span_begin t.io.Proto_io.obs ~party:t.io.Proto_io.me
                ~layer:"scabc"
                ~detail:(Printf.sprintf "pos=%d" t.next_position)
                "decrypt" }
        in
        t.next_position <- t.next_position + 1;
        Hashtbl.add t.slots d slot;
        t.order <- d :: t.order;
        (match Tdh2.decryption_share (enc_sharing t) ~party:t.io.Proto_io.me ct with
        | Some shares -> t.io.Proto_io.broadcast (Dec_share (d, shares))
        | None -> ());
        (* Validate any shares that raced ahead of the ordering. *)
        let early, rest =
          List.partition (fun (d', _, _) -> d' = d) t.early_shares
        in
        t.early_shares <- rest;
        List.iter (fun (_, src, shares) -> add_share t d ~src shares) early
      end
    end

and add_share t d ~src shares =
  match Hashtbl.find_opt t.slots d with
  | None ->
    if List.length t.early_shares < 4096 then
      t.early_shares <- (d, src, shares) :: t.early_shares
  | Some slot ->
    if
      (not (List.mem_assoc src slot.shares))
      (* Shape check at receipt, batched proof check at combine time
         (with attributed pruning). *)
      && Tdh2.check_shape (enc_sharing t) ~party:src shares
    then begin
      slot.shares <- (src, shares) :: slot.shares;
      try_decrypt t slot
    end

and try_decrypt t slot =
  if slot.plaintext = None then begin
    let avail =
      List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty slot.shares
    in
    match Tdh2.combine (enc_sharing t) slot.ct ~avail slot.shares with
    | None -> ()
    | Some plaintext ->
      slot.plaintext <- Some plaintext;
      Obs.span_end t.io.Proto_io.obs slot.sp_decrypt;
      slot.sp_decrypt <- 0;
      flush_deliveries t
  end

(* Deliver decrypted requests strictly in the agreed order. *)
and flush_deliveries t =
  let by_position = List.rev t.order in
  let rec go () =
    match List.nth_opt by_position t.next_delivery with
    | None -> ()
    | Some d ->
      let slot = Hashtbl.find t.slots d in
      (match slot.plaintext with
      | None -> ()
      | Some plaintext ->
        t.next_delivery <- t.next_delivery + 1;
        Obs.point t.io.Proto_io.obs ~party:t.io.Proto_io.me ~layer:"scabc"
          ~detail:(Printf.sprintf "pos=%d" slot.position)
          "deliver";
        t.deliver ~label:slot.ct.Tdh2.label plaintext;
        go ())
  in
  go ()

(* ---------- API ----------------------------------------------------- *)

(* Client-side helper: encrypt a request for this service. *)
let encrypt_request (keyring : Keyring.t) (rng : Prng.t) ~label
    (request : string) : string =
  Tdh2.ciphertext_to_bytes keyring.Keyring.enc
    (Tdh2.encrypt keyring.Keyring.enc rng ~label request)

(* Server entry point: order an (encrypted) request. *)
let broadcast t (ciphertext_bytes : string) = Abc.broadcast t.abc ciphertext_bytes

let handle t ~src msg =
  match msg with
  | Abc_msg m -> Abc.handle t.abc ~src m
  | Dec_share (d, shares) -> add_share t d ~src shares

let delivered_count t = t.next_delivery

let msg_size kr = function
  | Abc_msg m -> 8 + Abc.msg_size kr m
  | Dec_share (_, shares) -> 40 + (List.length shares * 150)

(* Checkpoint GC hook: drop the decryption-share sets (n share lists
   per ciphertext — the dominant per-slot state) of every slot already
   delivered.  The slot entry itself stays, keeping ordered-ciphertext
   dedup intact.  Returns the number of slots compacted. *)
let compact t =
  let freed = ref 0 in
  Hashtbl.iter
    (fun _ slot ->
      if slot.position < t.next_delivery && slot.shares <> [] then begin
        slot.shares <- [];
        incr freed
      end)
    t.slots;
  t.early_shares <-
    List.filter
      (fun (d, _, _) ->
        match Hashtbl.find_opt t.slots d with
        | Some slot -> slot.position >= t.next_delivery
        | None -> true)
      t.early_shares;
  !freed

let abc t = t.abc
