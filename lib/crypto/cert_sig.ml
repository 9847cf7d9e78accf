(* Certificate-style threshold signatures for generalized adversary
   structures.

   Section 4.2 of the paper asserts that all threshold-cryptographic
   protocols extend to any Q^3 structure with a linear secret sharing
   scheme.  For signatures, no *compact* such scheme was known in 2001;
   we implement the natural LSSS extension of the unique-signature
   approach: party i's share on message M is sigma_l = H'(M)^{x_l} per
   owned leaf with a DLEQ proof against the leaf verification key, and a
   "signature" is a sharing-qualified set of verified shares together
   with the recombined value H'(M)^x.  Verification re-checks the proofs
   and the recombination, so the certificate is publicly verifiable
   against the dealer's public keys — same interface as a threshold
   signature, with size proportional to the qualified set (the
   substitution is recorded in DESIGN.md). *)

module G = Schnorr_group

type share = Share_batch.share = { leaf : int; value : G.elt; proof : Dleq.t }

type certificate = {
  signers : Pset.t;
  shares : (int * share list) list;  (* party -> leaf shares *)
  combined : G.elt;  (* H'(M)^x : the unique signature value *)
}

let domain = "sintra/certsig"
let base_domain = domain ^ "/base"
let share_domain = domain ^ "/share"

let base (t : Dl_sharing.t) (msg : string) : G.elt =
  G.hash_to_elt t.Dl_sharing.group ~domain:base_domain [ msg ]

let sign_share (t : Dl_sharing.t) ~(party : int) (msg : string) : share list =
  Obs_crypto.sign ();
  let ps = t.Dl_sharing.group in
  let h = base t msg in
  let own = Dl_sharing.shares_of t party in
  (* As for the coin base: H'(M) is exponentiated twice per owned leaf
     here and once per leaf by every verifier, all through the shared
     table cache. *)
  if List.length own >= 3 then G.prepare_base ps h;
  List.map
    (fun (s : Lsss.subshare) ->
      let value = G.exp ps h s.value in
      Obs_crypto.share_proof ();
      let proof =
        Dleq.prove ps ~domain:share_domain ~x:s.value ~g1:ps.G.g
          ~h1:t.Dl_sharing.leaf_keys.(s.leaf) ~g2:h ~h2:value
      in
      { leaf = s.leaf; value; proof })
    own

let signers_of shares =
  List.fold_left (fun acc (p, _) -> Pset.add p acc) Pset.empty shares

let verify_share (t : Dl_sharing.t) ~(party : int) (msg : string)
    (shares : share list) : bool =
  Obs_crypto.share_verify ();
  let h = base t msg in
  if List.length (Dl_sharing.shares_of t party) >= 3 then
    G.prepare_base t.Dl_sharing.group h;
  Share_batch.check_shape t ~party shares
  && Share_batch.verify_proofs t ~domain:share_domain ~base:h shares

(* The shares arrive shape-checked only and are proof-checked here in
   one batch, pruning attributed-bad parties. *)
let combine (t : Dl_sharing.t) (msg : string)
    (shares : (int * share list) list) : certificate option =
  Obs_crypto.combine ();
  Share_batch.combine t ~domain:share_domain ~base:(lazy (base t msg))
    ~avail:(signers_of shares) shares
  |> Option.map (fun (shares, combined) ->
         { signers = signers_of shares; shares; combined })

let verify (t : Dl_sharing.t) (msg : string) (cert : certificate) : bool =
  Obs_crypto.verify ();
  (* Every share of a certificate proves against the same (g, H'(M))
     base pair, so the whole certificate folds into one batch; when
     there are enough leaves, table the message base once up front. *)
  let all = List.concat_map snd cert.shares in
  let h = base t msg in
  if List.length all >= 3 then G.prepare_base t.Dl_sharing.group h;
  List.for_all
    (fun (party, ss) -> Share_batch.check_shape t ~party ss)
    cert.shares
  && Share_batch.verify_proofs t ~domain:share_domain ~base:h all
  &&
  let signers = signers_of cert.shares in
  Pset.equal signers cert.signers
  &&
  let leaf_values = List.map (fun (s : share) -> (s.leaf, s.value)) all in
  match Dl_sharing.combine_in_exponent t ~avail:signers ~leaf_values with
  | None -> false
  | Some c -> G.elt_equal c cert.combined
