(* Share verification shared by the DLEQ-based share schemes (threshold
   coin, TDH2 decryption, certificate signatures).

   All three schemes hand out shares of the same shape: for a scheme
   base b (H'(name), the ciphertext's u, or H'(M)), a share for leaf l
   is b^{x_l} with a DLEQ proof of log_g leafkey_l = log_b value.  That
   makes their statements batch together — same g1 = g and g2 = b across
   a whole message, or across every share of a combine call — and makes
   the combine-time check identical for all of them.

   There is one verification path.  Protocol call sites check only a
   share's shape at receipt; [combine] proof-checks exactly the shares
   that produce its output, in one batch, and attributes and prunes bad
   parties when that batch fails.  A stand-alone verify call batches
   whenever it covers at least two proofs. *)

module G = Schnorr_group

type share = { leaf : int; value : G.elt; proof : Dleq.t }

(* Structural validity alone: the right number of shares, each for a
   leaf that exists and belongs to [party]. *)
let check_shape (t : Dl_sharing.t) ~(party : int) (shares : share list) :
    bool =
  List.length shares = List.length (Dl_sharing.shares_of t party)
  && List.for_all
       (fun (s : share) ->
         s.leaf >= 0
         && s.leaf < Array.length t.Dl_sharing.leaf_keys
         && Lsss.leaf_owner t.Dl_sharing.scheme s.leaf = party)
       shares

let statements (t : Dl_sharing.t) ~(base : G.elt) (shares : share list) :
    (Dleq.statement * Dleq.t) list =
  let ps = t.Dl_sharing.group in
  List.map
    (fun (s : share) ->
      ( { Dleq.g1 = ps.G.g;
          h1 = t.Dl_sharing.leaf_keys.(s.leaf);
          g2 = base;
          h2 = s.value },
        s.proof ))
    shares

(* The proofs of shape-checked shares: one random-linear-combination
   check from two proofs up, the exact per-proof check below that. *)
let verify_proofs (t : Dl_sharing.t) ~(domain : string) ~(base : G.elt)
    (shares : share list) : bool =
  let ps = t.Dl_sharing.group in
  match shares with
  | _ :: _ :: _ -> Dleq.batch_verify ps ~domain (statements t ~base shares)
  | _ ->
    List.for_all
      (fun (s : share) ->
        Dleq.verify ps ~domain ~g1:ps.G.g ~h1:t.Dl_sharing.leaf_keys.(s.leaf)
          ~g2:base ~h2:s.value s.proof)
      shares

(* Combine-time validation: batch-check every proof behind the
   qualified set at once; on failure, attribute the bad proofs by
   bisection and drop the submitting parties, repeating until the batch
   is clean or the surviving set is no longer qualified.  Then recombine
   the surviving shares in the exponent.

   An honest execution takes one batch check ([Obs_crypto.lazy_verify_hit]
   counts these); each round of the pruning loop removes at least one
   party, so the loop terminates. *)
let combine (t : Dl_sharing.t) ~(domain : string) ~(base : G.elt)
    ~(avail : Pset.t) (shares : (int * share list) list) :
    ((int * share list) list * G.elt) option =
  let ps = t.Dl_sharing.group in
  let rec attempt (avail : Pset.t) shares =
    (* Qualification gate first: the recombination lookup is cached, and
       an unqualified set should not pay for proof checks at all. *)
    match Lsss.recombination t.Dl_sharing.scheme avail with
    | None -> None
    | Some _ ->
      let flat =
        List.concat_map (fun (p, ss) -> List.map (fun s -> (p, s)) ss) shares
      in
      let batch = statements t ~base (List.map snd flat) in
      if Dleq.batch_verify ps ~domain batch then begin
        Obs_crypto.lazy_verify_hit ();
        let leaf_values =
          List.map (fun (_, (s : share)) -> (s.leaf, s.value)) flat
        in
        Option.map
          (fun v -> (shares, v))
          (Dl_sharing.combine_in_exponent t ~avail ~leaf_values)
      end
      else begin
        let parties = Array.of_list (List.map fst flat) in
        let bad =
          Dleq.batch_find_bad ps ~domain batch
          |> List.map (fun i -> parties.(i))
          |> List.sort_uniq compare
        in
        match bad with
        | [] -> None (* batch fails but nothing attributable: refuse *)
        | _ ->
          attempt
            (List.fold_left (fun a p -> Pset.remove p a) avail bad)
            (List.filter (fun (p, _) -> not (List.mem p bad)) shares)
      end
  in
  attempt avail shares
