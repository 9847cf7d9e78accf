(* TDH2: the threshold public-key cryptosystem of Shoup and Gennaro,
   secure against adaptive chosen-ciphertext attack in the random-oracle
   model.

   CCA security is what makes secure *causal* atomic broadcast possible
   (paper, Sections 3 and 5.2): an adversary who sees a ciphertext in
   transit can neither decrypt it nor maul it into a related ciphertext
   of its own, so client requests stay confidential and unlinkable until
   the servers agree to deliver them.

   Encryption of message m under label L:
     k, r  random in Z_q
     c  = m XOR KDF(h^k)            (h = g^x is the public key)
     u  = g^k,  u' = g'^k           (g' an independent generator)
     w  = g^r,  w' = g'^r
     e  = H(c, L, u, w, u', w'),  f = r + k e
   The tuple (c, L, u, u', e, f) is the ciphertext; (e, f) is a proof of
   consistency that every server checks before emitting a decryption
   share, which is u^{x_l} plus a DLEQ proof. *)

module B = Bignum
module G = Schnorr_group

type ciphertext = {
  c : string;  (* symmetric part *)
  label : string;
  u : G.elt;
  u' : G.elt;
  e : B.t;
  f : B.t;
}

type dec_share = Share_batch.share = {
  leaf : int;
  value : G.elt;
  proof : Dleq.t;
}

let domain = "sintra/tdh2"
let g'_domain = domain ^ "/g'"
let e_domain = domain ^ "/e"
let share_domain = domain ^ "/share"
let kdf_domain = domain ^ "/kdf"

(* Independent second generator, derived by hashing (nothing up the
   sleeve: its discrete log w.r.t. g is unknown). *)
let g' (ps : G.params) : G.elt =
  G.hash_to_elt ps ~domain:g'_domain [ G.elt_to_bytes ps ps.G.g ]

let challenge ps ~c ~label ~u ~w ~u' ~w' : B.t =
  G.hash_to_exponent ps ~domain:e_domain
    (c :: label :: List.map (G.elt_to_bytes ps) [ u; w; u'; w' ])

let encrypt (t : Dl_sharing.t) (rng : Prng.t) ~(label : string)
    (plaintext : string) : ciphertext =
  let ps = t.Dl_sharing.group in
  let k = G.random_exponent ps rng and r = G.random_exponent ps rng in
  let shared = G.exp ps t.Dl_sharing.public_key k in
  let c =
    Ro.xor_pad ~domain:kdf_domain ~key:(G.elt_to_bytes ps shared)
      plaintext
  in
  let gp = g' ps in
  G.prepare_base ps gp;
  let u = G.exp_g ps k and u' = G.exp ps gp k in
  let w = G.exp_g ps r and w' = G.exp ps gp r in
  let e = challenge ps ~c ~label ~u ~w ~u' ~w' in
  let f = B.add_mod r (B.mul_mod k e ps.G.q) ps.G.q in
  { c; label; u; u'; e; f }

(* Public validity check; servers must refuse to decrypt invalid
   ciphertexts (this is the CCA2 barrier). *)
let is_valid (t : Dl_sharing.t) (ct : ciphertext) : bool =
  let ps = t.Dl_sharing.group in
  G.is_element ps ct.u && G.is_element ps ct.u'
  && B.sign ct.f >= 0 && B.lt ct.f ps.G.q
  &&
  let gp = g' ps in
  (* w = g^f * u^-e (and likewise for g'), each pair fused into one
     shared-squaring-chain exponentiation.  g' recurs across every
     ciphertext of a key, so it earns a fixed-base table. *)
  G.prepare_base ps gp;
  let w = G.exp2 ps ps.G.g ct.f (G.inv ps ct.u) ct.e in
  let w' = G.exp2 ps gp ct.f (G.inv ps ct.u') ct.e in
  B.equal ct.e (challenge ps ~c:ct.c ~label:ct.label ~u:ct.u ~w ~u':ct.u' ~w')

let decryption_share (t : Dl_sharing.t) ~(party : int) (ct : ciphertext) :
    dec_share list option =
  Obs_crypto.sign ();
  if not (is_valid t ct) then None
  else begin
    let ps = t.Dl_sharing.group in
    Some
      (List.map
         (fun (s : Lsss.subshare) ->
           let value = G.exp ps ct.u s.value in
           let proof =
             Dleq.prove ps ~domain:share_domain ~x:s.value ~g1:ps.G.g
               ~h1:t.Dl_sharing.leaf_keys.(s.leaf) ~g2:ct.u ~h2:value
           in
           { leaf = s.leaf; value; proof })
         (Dl_sharing.shares_of t party))
  end

let check_shape = Share_batch.check_shape

let verify_share (t : Dl_sharing.t) ~(party : int) (ct : ciphertext)
    (shares : dec_share list) : bool =
  Obs_crypto.share_verify ();
  check_shape t ~party shares
  && Share_batch.verify_proofs t ~domain:share_domain ~base:ct.u shares

(* The shares arrive shape-checked only and are proof-checked here in
   one batch, pruning attributed-bad parties on failure. *)
let combine (t : Dl_sharing.t) (ct : ciphertext) ~(avail : Pset.t)
    (shares : (int * dec_share list) list) : string option =
  Obs_crypto.combine ();
  if not (is_valid t ct) then None
  else
    Share_batch.combine t ~domain:share_domain ~base:ct.u ~avail shares
    |> Option.map (fun (_, shared) ->
           Ro.xor_pad ~domain:kdf_domain
             ~key:(G.elt_to_bytes t.Dl_sharing.group shared)
             ct.c)

(* Wire encoding, so ciphertexts can be hashed / carried in messages. *)
let ciphertext_to_bytes (t : Dl_sharing.t) (ct : ciphertext) : string =
  let ps = t.Dl_sharing.group in
  Ro.encode
    [ ct.c; ct.label; G.elt_to_bytes ps ct.u; G.elt_to_bytes ps ct.u';
      B.to_bytes_be ct.e; B.to_bytes_be ct.f ]

(* Inverse of {!ciphertext_to_bytes}.  Parses the length-prefixed fields
   and checks group membership; the caller still runs {!is_valid}. *)
let ciphertext_of_bytes (t : Dl_sharing.t) (raw : string) : ciphertext option =
  let ps = t.Dl_sharing.group in
  let decode s =
    (* fields are 8-byte length-prefixed, same format as Ro.encode *)
    let len = String.length s in
    let read_u64 off =
      let v = ref 0 in
      for i = 0 to 7 do
        v := (!v lsl 8) lor Char.code s.[off + i]
      done;
      !v
    in
    let rec go off acc =
      if off = len then Some (List.rev acc)
      else if off + 8 > len then None
      else begin
        let l = read_u64 off in
        if l < 0 || off + 8 + l > len then None
        else go (off + 8 + l) (String.sub s (off + 8) l :: acc)
      end
    in
    go 0 []
  in
  match decode raw with
  | Some [ c; label; u; u'; e; f ] ->
    (match (G.elt_of_bytes ps u, G.elt_of_bytes ps u') with
    | Some u, Some u' ->
      Some { c; label; u; u'; e = B.of_bytes_be e; f = B.of_bytes_be f }
    | None, _ | _, None -> None)
  | Some _ | None -> None
