(* The trusted dealer's output: everything a deployment of n servers
   needs (paper, Section 2: "a trusted dealer generates and distributes
   secret values to all servers once and for all").

   A keyring bundles, for one adversary structure:
   - the shared Schnorr group,
   - a DL sharing for the threshold coin,
   - an independent DL sharing for the TDH2 cryptosystem,
   - the service signature scheme (Shoup RSA threshold signatures when
     the structure is a plain threshold; LSSS certificate signatures for
     generalized structures),
   - one plain Schnorr keypair per server for signed protocol messages
     and quorum-certificate shares.

   In the simulator every party holds the whole record but honest code
   only ever reads its own secrets; corrupted parties may read
   everything, which faithfully models full corruption. *)

module B = Bignum
module G = Schnorr_group
module AS = Adversary_structure

type service_keys =
  | Rsa_keys of Rsa_threshold.keys
  | Cert_keys of Dl_sharing.t

type sig_share =
  | Rsa_share of Rsa_threshold.share
  | Cert_share of int * Cert_sig.share list  (* party, leaf shares *)

type service_signature =
  | Rsa_signature of Rsa_threshold.signature
  | Cert_signature of Cert_sig.certificate

type t = {
  group : G.params;
  structure : AS.t;
  coin : Dl_sharing.t;
  enc : Dl_sharing.t;
  service : service_keys;
  party_keys : Schnorr_sig.keypair array;
}

let deal ?(group_bits = 128) ?(rsa_bits = 256) ~seed (structure : AS.t) : t =
  let rng = Prng.create ~seed in
  let group = G.default ~bits:group_bits () in
  let coin = Dl_sharing.deal group structure (Prng.split rng) in
  let enc = Dl_sharing.deal group structure (Prng.split rng) in
  let service =
    match AS.threshold_of structure with
    | Some tt ->
      Rsa_keys
        (Rsa_threshold.deal ~bits:rsa_bits ~n:(AS.n structure) ~k:(tt + 1)
           (Prng.split rng))
    | None -> Cert_keys (Dl_sharing.deal group structure (Prng.split rng))
  in
  let party_keys =
    Array.init (AS.n structure) (fun _ -> Schnorr_sig.generate group rng)
  in
  { group; structure; coin; enc; service; party_keys }

let n t = AS.n t.structure

let party_public_key t i = t.party_keys.(i).Schnorr_sig.pk

let sign t ~party msg = Schnorr_sig.sign t.group t.party_keys.(party) msg

let verify_party_signature t ~party msg s =
  party >= 0 && party < n t
  && Schnorr_sig.verify t.group ~pk:(party_public_key t party) msg s

(* --- service (threshold) signatures ------------------------------- *)

let service_sign_share t ~party msg : sig_share =
  match t.service with
  | Rsa_keys keys -> Rsa_share (Rsa_threshold.sign_share keys ~party msg)
  | Cert_keys sh -> Cert_share (party, Cert_sig.sign_share sh ~party msg)

(* Certificate shares have no bare form. *)
let service_reply_share t ~party msg : sig_share =
  match t.service with
  | Rsa_keys keys -> Rsa_share (Rsa_threshold.bare_share keys ~party msg)
  | Cert_keys _ -> service_sign_share t ~party msg

let service_verify_share t ~party msg (s : sig_share) : bool =
  match (t.service, s) with
  | Rsa_keys keys, Rsa_share sh ->
    sh.Rsa_threshold.signer = party && Rsa_threshold.verify_share keys msg sh
  | Cert_keys dl, Cert_share (p, ss) ->
    p = party && Cert_sig.verify_share dl ~party msg ss
  | Rsa_keys _, Cert_share _ | Cert_keys _, Rsa_share _ -> false

let sig_share_signer = function
  | Rsa_share sh -> sh.Rsa_threshold.signer
  | Cert_share (p, _) -> p

let rsa_shares =
  List.filter_map (function Rsa_share s -> Some s | Cert_share _ -> None)

let cert_shares =
  List.filter_map (function Cert_share (p, ss) -> Some (p, ss) | Rsa_share _ -> None)

(* Combine first; name the bad signers only when that fails on a
   sharing-qualified set (or, for certificates, when combining pruned
   someone), so an all-honest share set pays for no per-share check.
   What comes out already passes [service_verify]: an RSA combination is
   accepted only by y^e = H(M), and certificate shares are shape-checked
   here and proof-checked in one batch by [Cert_sig.combine], which is
   all [Cert_sig.verify] checks. *)
let service_combine_attributed t msg (shares : sig_share list) :
    service_signature option * int list =
  match t.service with
  | Rsa_keys keys ->
    let y, bad = Rsa_threshold.combine_attributed keys msg (rsa_shares shares) in
    (Option.map (fun s -> Rsa_signature s) y, bad)
  | Cert_keys dl ->
    let cs, misshapen =
      List.partition
        (fun (p, ss) -> Share_batch.check_shape dl ~party:p ss)
        (cert_shares shares)
    in
    let c, bad =
      match Cert_sig.combine dl msg cs with
      | Some c ->
        ( Some (Cert_signature c),
          List.filter_map
            (fun (p, _) -> if Pset.mem p c.Cert_sig.signers then None else Some p)
            cs )
      | None ->
        let avail = List.fold_left (fun a (p, _) -> Pset.add p a) Pset.empty cs in
        if not (AS.is_qualified dl.Dl_sharing.structure avail) then (None, [])
        else
          ( None,
            List.filter_map
              (fun (p, ss) ->
                if Cert_sig.verify_share dl ~party:p msg ss then None else Some p)
              cs )
    in
    (c, List.map fst misshapen @ bad)

let service_combine t msg shares = fst (service_combine_attributed t msg shares)

let service_verify t msg (s : service_signature) : bool =
  match (t.service, s) with
  | Rsa_keys keys, Rsa_signature y -> Rsa_threshold.verify keys.Rsa_threshold.pk msg y
  | Cert_keys dl, Cert_signature c -> Cert_sig.verify dl msg c
  | Rsa_keys _, Cert_signature _ | Cert_keys _, Rsa_signature _ -> false

(* --- service signature serialization ------------------------------ *)

(* Combined service signatures travel inside checkpoint certificates,
   which cross the wire during state transfer, so both arms need a
   byte form.  Fields are length-prefixed with [Ro.encode]; decoding
   re-validates every group element against the keyring's group, and a
   signature only decodes under a keyring whose service arm matches.
   Every field has one accepted form (canonical decimals, minimal
   naturals, fixed-width elements, ascending signers), so a signature
   or share that decodes re-encodes to the very same bytes. *)

let encode_share t (sh : Cert_sig.share) : string =
  let open Cert_sig in
  Ro.encode
    [ string_of_int sh.leaf;
      G.elt_to_bytes t.group sh.value;
      B.to_bytes_be sh.proof.Dleq.c;
      B.to_bytes_be sh.proof.Dleq.z;
      G.elt_to_bytes t.group sh.proof.Dleq.a1;
      G.elt_to_bytes t.group sh.proof.Dleq.a2 ]

let read_elt t r = Wire.get (G.elt_of_bytes t.group (Wire.bytes r))

let read_party t r =
  let p = Wire.decimal r in
  Wire.check (p >= 0 && p < n t);
  p

(* One [encode_share] field. *)
let read_share t r : Cert_sig.share =
  Wire.sub r (fun r ->
      let leaf = Wire.decimal r in
      let value = read_elt t r in
      let c = Wire.nat r in
      let z = Wire.nat r in
      let a1 = read_elt t r in
      let a2 = read_elt t r in
      { Cert_sig.leaf; value; proof = { Dleq.c; z; a1; a2 } })

let service_signature_to_bytes (t : t) (s : service_signature) : string =
  match s with
  | Rsa_signature y -> Ro.encode [ "rsa"; B.to_bytes_be y ]
  | Cert_signature c ->
    Ro.encode
      [ "cert";
        Ro.encode (List.map string_of_int (Pset.to_list c.Cert_sig.signers));
        Ro.encode
          (List.map
             (fun (p, ss) ->
               Ro.encode (string_of_int p :: List.map (encode_share t) ss))
             c.Cert_sig.shares);
        G.elt_to_bytes t.group c.Cert_sig.combined ]

let service_signature_of_bytes t (b : string) : service_signature option =
  Wire.parse b (fun r ->
      match (Wire.bytes r, t.service) with
      | "rsa", Rsa_keys _ -> Rsa_signature (Wire.nat r)
      | "cert", Cert_keys _ ->
        let signers = Wire.sub r (fun r -> Wire.until_end r (read_party t)) in
        Wire.ascending ~above:(-1) signers;
        let shares =
          Wire.sub r (fun r ->
              Wire.until_end r (fun r ->
                  Wire.sub r (fun r ->
                      let p = Wire.decimal r in
                      (p, Wire.until_end r (read_share t)))))
        in
        Cert_signature
          { Cert_sig.signers = Pset.of_list signers;
            shares;
            combined = read_elt t r }
      | _ -> Wire.fail ())

(* Individual shares travel inside service replies, so they need a byte
   form too.  Same discipline as combined signatures: the arm is
   explicit and only decodes under a keyring whose service scheme
   matches, and every group element is re-validated on decode.  An RSA
   share with its proof is ["rsa-share"; signer; x; c; z], a bare one
   ["rsa-bare"; signer; x]. *)

let sig_share_to_bytes t (s : sig_share) : string =
  match s with
  | Rsa_share { Rsa_threshold.signer; x; proof = None } ->
    Ro.encode [ "rsa-bare"; string_of_int signer; B.to_bytes_be x ]
  | Rsa_share { Rsa_threshold.signer; x; proof = Some { c; z } } ->
    Ro.encode
      [ "rsa-share"; string_of_int signer; B.to_bytes_be x; B.to_bytes_be c;
        B.to_bytes_be z ]
  | Cert_share (p, ss) ->
    Ro.encode ("cert-share" :: string_of_int p :: List.map (encode_share t) ss)

let sig_share_of_bytes t (b : string) : sig_share option =
  Wire.parse b (fun r ->
      match (Wire.bytes r, t.service) with
      | (("rsa-share" | "rsa-bare") as arm), Rsa_keys _ ->
        let signer = read_party t r in
        let x = Wire.nat r in
        let proof =
          if arm = "rsa-bare" then None
          else
            let c = Wire.nat r in
            Some { Rsa_threshold.c; z = Wire.nat r }
        in
        Rsa_share { Rsa_threshold.signer; x; proof }
      | "cert-share", Cert_keys _ ->
        let p = read_party t r in
        Cert_share (p, Wire.until_end r (read_share t))
      | _ -> Wire.fail ())

(* --- quorum certificates ------------------------------------------ *)

(* Transferable evidence that a big-quorum of servers endorsed a
   statement: the protocol "justifications" of the CKS00 agreement
   protocol and the delivery certificates of consistent broadcast.  A
   share is one server's Schnorr signature on the statement and a
   certificate the vector of a big quorum's shares. *)

type cert_share = Schnorr_sig.signature
type cert = (int * cert_share) list
type party_verifier = party:int -> string -> Schnorr_sig.signature -> bool

let cert_share = sign

(* One entry per endorser: a repeated party counts once. *)
let distinct (shares : (int * cert_share) list) =
  let shares = List.sort_uniq (fun (a, _) (b, _) -> compare a b) shares in
  (shares, List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty shares)

(* Shares must have been verified by the caller. *)
let make_cert t (_ : string) (shares : (int * cert_share) list) : cert option =
  let shares, endorsers = distinct shares in
  if AS.big_quorum t.structure endorsers then Some shares else None

let verify_cert ?verify t (statement : string) (c : cert) : bool =
  let verify = Option.value verify ~default:(verify_party_signature t) in
  let sigs, endorsers = distinct c in
  AS.big_quorum t.structure endorsers
  && List.for_all (fun (p, sg) -> verify ~party:p statement sg) sigs

(* Approximate wire size of a certificate in bytes, for the message
   complexity experiments. *)
let cert_size t (c : cert) : int =
  List.length c * (4 + (2 * G.exponent_len t.group))
