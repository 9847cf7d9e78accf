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
   sleeve: its discrete log w.r.t. g is unknown).  It is a function of
   the group alone, so each group hashes it once; g' recurs across every
   ciphertext of a key, so it also earns a fixed-base table. *)
let g'_by_group : (G.params * G.elt) list ref = ref []

let g' (ps : G.params) : G.elt =
  let gp =
    match List.find_opt (fun (ps', _) -> G.params_equal ps ps') !g'_by_group with
    | Some (_, gp) -> gp
    | None ->
      let gp = G.hash_to_elt ps ~domain:g'_domain [ G.elt_to_bytes ps ps.G.g ] in
      g'_by_group := (ps, gp) :: List.filteri (fun i _ -> i < 7) !g'_by_group;
      gp
  in
  G.prepare_base ps gp;
  gp

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
  let u = G.exp_g ps k and u' = G.exp ps gp k in
  let w = G.exp_g ps r and w' = G.exp ps gp r in
  let e = challenge ps ~c ~label ~u ~w ~u' ~w' in
  { c; label; u; u'; e; f = G.response ps ~r ~c:e ~x:k }

(* A ciphertext that passed the public validity check on this replica:
   (e, f) proves u and u' consistent (both are subgroup members by
   their type).  Servers must refuse to decrypt anything else (the CCA2
   barrier), and only this module builds a [checked], so sharing and
   combining cannot skip the check. *)
type checked = ciphertext

(* The consistency proof: w = g^f * u^-e, and likewise for g'. *)
let check (t : Dl_sharing.t) (ct : ciphertext) : checked option =
  let ps = t.Dl_sharing.group in
  let holds =
    G.is_exponent ps ct.f
    &&
    let gp = g' ps in
    let w = G.recommit ps ~g:ps.G.g ~z:ct.f ~h:ct.u ~c:ct.e in
    let w' = G.recommit ps ~g:gp ~z:ct.f ~h:ct.u' ~c:ct.e in
    B.equal ct.e
      (challenge ps ~c:ct.c ~label:ct.label ~u:ct.u ~w ~u':ct.u' ~w')
  in
  if holds then Some ct else None

let is_valid t ct = Option.is_some (check t ct)
let ciphertext (ct : checked) : ciphertext = ct

let share (t : Dl_sharing.t) ~(party : int) (ct : checked) : dec_share list =
  Obs_crypto.sign ();
  let ps = t.Dl_sharing.group in
  List.map
    (fun (s : Lsss.subshare) ->
      let value = G.exp ps ct.u s.value in
      let proof =
        Dleq.prove ps ~domain:share_domain ~x:s.value ~g1:ps.G.g
          ~h1:t.Dl_sharing.leaf_keys.(s.leaf) ~g2:ct.u ~h2:value
      in
      { leaf = s.leaf; value; proof })
    (Dl_sharing.shares_of t party)

let decryption_share t ~party ct = Option.map (share t ~party) (check t ct)

let check_shape = Share_batch.check_shape

let verify_share (t : Dl_sharing.t) ~(party : int) (ct : checked)
    (shares : dec_share list) : bool =
  Obs_crypto.share_verify ();
  check_shape t ~party shares
  && Share_batch.verify_proofs t ~domain:share_domain ~base:ct.u shares

(* The shares arrive shape-checked only and are proof-checked here in
   one batch, pruning attributed-bad parties on failure.  The
   ciphertext itself was checked once, when it became a [checked].
   [own] is the caller's index and the shares it made ({!share}), left
   out of the proof batch when the list under that index equals them. *)
let combine ?own (t : Dl_sharing.t) (ct : checked) ~(avail : Pset.t)
    (shares : (int * dec_share list) list) : string option =
  Obs_crypto.combine ();
  Share_batch.combine ?own t ~domain:share_domain ~base:(Lazy.from_val ct.u)
    ~avail shares
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

let ciphertext_of_bytes (t : Dl_sharing.t) (raw : string) : ciphertext option =
  let ps = t.Dl_sharing.group in
  let elt r = Wire.get (G.elt_of_bytes ps (Wire.bytes r)) in
  Wire.parse raw (fun r ->
      let c = Wire.bytes r in
      let label = Wire.bytes r in
      let u = elt r in
      let u' = elt r in
      let e = Wire.nat r in
      { c; label; u; u'; e; f = Wire.nat r })

(* Membership was tested by the decoder, so only the proof is left. *)
let checked_of_bytes (t : Dl_sharing.t) (raw : string) : checked option =
  Option.bind (ciphertext_of_bytes t raw) (check t)
