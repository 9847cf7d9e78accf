(* Proactive share refresh and membership change (paper, Section 6,
   "Proactive Protocols"): one resharing primitive.

   Proactive security divides time into epochs; between epochs the
   parties re-randomize their key shares so that everything a mobile
   adversary learned in past epochs becomes useless — it must corrupt a
   qualified set *within one epoch* to win.  A membership change moves
   the same secret x from one access structure to another (add a
   replica by including it in the target, remove one by leaving it
   out).  Both are the classic LSSS-to-LSSS resharing: every dealer
   B-shares each old leaf value it owns over the *target* scheme and
   publishes per-target-leaf exponent keys; a verifier checks each
   sub-dealing against the old leaf's public key in the exponent.  Any
   old-structure sharing-qualified dealer set then recombines: with
   old-scheme coefficients c_l over the dealers' leaves,

     new share of target leaf m  =  sum_l c_l * w_{l,m}
     new key of target leaf m    =  prod_l (K_{l,m})^{c_l}

   so the secret (sum_l c_l * v_l = x), the public key g^x and every
   derived object (ciphertexts under the old public key, issued
   signatures) are untouched while every share lives in the new scheme.
   A refresh is a reshare onto the current structure.  Old-epoch shares
   are useless afterwards even then: the new sharing is a combination of
   fresh random sharings, one of them dealt by an honest dealer, so it
   is independent of the old one given x, and a qualified-size mix of
   old and new shares recombines to garbage.

   Agreeing on the epoch boundary in an asynchronous network is
   {!Epoch}'s part: the boundary is a certified advance ordered by the
   atomic broadcast (Cachin-Kursawe-Lysyanskaya-Strobl, CCS 2002, do
   asynchronous proactive refresh the same way). *)

module B = Bignum
module G = Schnorr_group

type target = {
  t_structure : Adversary_structure.t;
  t_scheme : Lsss.scheme;
}

let target_of (t : Dl_sharing.t) (structure : Adversary_structure.t) : target =
  { t_structure = structure;
    t_scheme =
      Lsss.build ~modulus:(G.order t.Dl_sharing.group)
        (Adversary_structure.access_formula structure) }

type reshare_package = {
  r_dealer : int;
  r_deals : (int * Lsss.subshare list * G.elt array) list;
      (* old leaf -> fresh sharing of its value over the target scheme,
         plus per-target-leaf keys g^{w} *)
}

let make_reshare (t : Dl_sharing.t) (target : target) ~(dealer : int)
    (rng : Prng.t) : reshare_package =
  let ps = t.Dl_sharing.group in
  G.prepare_base ps ps.G.g;
  let r_deals =
    List.map
      (fun (s : Lsss.subshare) ->
        let shares = Lsss.share target.t_scheme rng ~secret:s.Lsss.value in
        let keys =
          Array.make (Lsss.num_leaves target.t_scheme) (G.one ps)
        in
        List.iter
          (fun (w : Lsss.subshare) ->
            keys.(w.Lsss.leaf) <- G.exp_g ps w.Lsss.value)
          shares;
        (s.Lsss.leaf, shares, keys))
      (Dl_sharing.shares_of t dealer)
  in
  { r_dealer = dealer; r_deals = r_deals }

(* A reshare package is valid when it covers exactly the dealer's old
   leaves and each sub-dealing is a well-formed target-scheme sharing
   whose exponent recombination lands on the old leaf's public key. *)
let verify_reshare (t : Dl_sharing.t) (target : target)
    (pkg : reshare_package) : bool =
  let ps = t.Dl_sharing.group in
  let old_scheme = t.Dl_sharing.scheme in
  let nl' = Lsss.num_leaves target.t_scheme in
  let full = Pset.full (Adversary_structure.n target.t_structure) in
  let covered = List.sort compare (List.map (fun (l, _, _) -> l) pkg.r_deals) in
  let owned =
    List.sort compare
      (List.map (fun (s : Lsss.subshare) -> s.Lsss.leaf)
         (Dl_sharing.shares_of t pkg.r_dealer))
  in
  covered = owned
  && covered <> []
  && List.for_all
       (fun (old_leaf, shares, keys) ->
         old_leaf >= 0
         && old_leaf < Array.length t.Dl_sharing.leaf_keys
         && Lsss.leaf_owner old_scheme old_leaf = pkg.r_dealer
         && Array.length keys = nl'
         && List.length shares = nl'
         &&
         (* Every target leaf exactly once: a duplicate hiding a
            missing leaf would leave one key unchecked against any
            share. *)
         let seen = Array.make nl' false in
         List.for_all
           (fun (w : Lsss.subshare) ->
             w.Lsss.leaf >= 0
             && w.Lsss.leaf < nl'
             && (not seen.(w.Lsss.leaf))
             && (seen.(w.Lsss.leaf) <- true;
                 Lsss.leaf_owner target.t_scheme w.Lsss.leaf = w.Lsss.party
                 && G.elt_equal keys.(w.Lsss.leaf) (G.exp_g ps w.Lsss.value)))
           shares
         &&
         match Lsss.recombination target.t_scheme full with
         | None -> false
         | Some coeffs ->
           G.elt_equal
             (G.multi_exp ps
                (List.map (fun (leaf, c) -> (keys.(leaf), c)) coeffs))
             t.Dl_sharing.leaf_keys.(old_leaf))
       pkg.r_deals

(* Recombine verified reshare packages into the next epoch's sharing
   over the target structure.  The dealers must be distinct and form an
   old-structure sharing-qualified set (so the recombination vector
   exists); re-randomization additionally needs an honest dealer among
   them, which the caller establishes (run_reshare, or the epoch
   protocol's certificate). *)
let apply_reshares (t : Dl_sharing.t) (target : target)
    (pkgs : reshare_package list) : (Dl_sharing.t, string) result =
  let ps = t.Dl_sharing.group in
  let dealers =
    List.fold_left (fun acc p -> Pset.add p.r_dealer acc) Pset.empty pkgs
  in
  if List.length pkgs <> Pset.card dealers then
    Error "duplicate dealer in reshare set"
  else
    match Lsss.recombination t.Dl_sharing.scheme dealers with
    | None -> Error "dealer set not sharing-qualified in the old structure"
    | Some coeffs ->
      let deal_of old_leaf =
        List.find_map
          (fun p ->
            List.find_map
              (fun (l, shares, keys) ->
                if l = old_leaf then Some (shares, keys) else None)
              p.r_deals)
          pkgs
      in
      (try
         let nl' = Lsss.num_leaves target.t_scheme in
         let values = Array.make nl' B.zero in
         List.iter
           (fun (old_leaf, c) ->
             match deal_of old_leaf with
             | None -> raise Exit
             | Some (shares, _) ->
               List.iter
                 (fun (w : Lsss.subshare) ->
                   values.(w.Lsss.leaf) <-
                     G.response ps ~r:values.(w.Lsss.leaf) ~c ~x:w.Lsss.value)
                 shares)
           coeffs;
         let leaf_keys =
           Array.init nl' (fun l' ->
               G.multi_exp ps
                 (List.map
                    (fun (old_leaf, c) ->
                      match deal_of old_leaf with
                      | None -> raise Exit
                      | Some (_, keys) -> (keys.(l'), c))
                    coeffs))
         in
         let subshares =
           List.init nl' (fun l' ->
               { Lsss.leaf = l';
                 party = Lsss.leaf_owner target.t_scheme l';
                 value = values.(l') })
         in
         let next =
           { t with
             Dl_sharing.structure = target.t_structure;
             scheme = target.t_scheme;
             subshares;
             leaf_keys }
         in
         (* Defence in depth: the recombined keys must still open to the
            deployment's public key. *)
         let full = Pset.full (Adversary_structure.n target.t_structure) in
         match
           Dl_sharing.combine_in_exponent next ~avail:full
             ~leaf_values:
               (List.mapi (fun l k -> (l, k)) (Array.to_list leaf_keys))
         with
         | Some pk when G.elt_equal pk t.Dl_sharing.public_key -> Ok next
         | _ -> Error "resharing does not open to the public key"
       with Exit -> Error "reshare packages do not cover the dealer leaves")

(* One synchronous resharing round: every dealer holding old shares
   contributes, invalid packages are dropped, and the move happens only
   when the accepted dealers surely contain an honest party (secrecy of
   the re-randomization) and are old-structure sharing-qualified
   (availability of the recombination). *)
let run_reshare (t : Dl_sharing.t) ~(structure : Adversary_structure.t)
    ~(dealers : Pset.t) (rng : Prng.t) : (Dl_sharing.t, string) result =
  let target = target_of t structure in
  let pkgs =
    Pset.fold
      (fun dealer acc ->
        if Dl_sharing.shares_of t dealer = [] then acc
        else make_reshare t target ~dealer (Prng.split rng) :: acc)
      dealers []
  in
  let accepted = List.filter (verify_reshare t target) pkgs in
  let dealer_set =
    List.fold_left (fun acc p -> Pset.add p.r_dealer acc) Pset.empty accepted
  in
  if
    not (Adversary_structure.contains_honest t.Dl_sharing.structure dealer_set)
  then Error "reshare set may be fully corrupted; epoch not advanced"
  else apply_reshares t target accepted
