(* Threshold coin-tossing scheme of Cachin, Kursawe and Shoup.

   For a coin with name N, let g_N = H'(N) be a random group element.
   Party i's coin share for leaf l is sigma_l = g_N^{x_l} together with a
   DLEQ proof against the leaf verification key.  Any sharing-qualified
   set of verified shares recombines (in the exponent) to g_N^x, whose
   hash gives the coin value — unpredictable until a qualified set
   cooperates, and identical for all parties.  This is the source of
   shared randomness that lets the ABBA protocol of Section 3 circumvent
   the FLP impossibility result. *)

module G = Schnorr_group

type share = Share_batch.share = { leaf : int; value : G.elt; proof : Dleq.t }

let domain = "sintra/coin"
let base_domain = domain ^ "/base"
let share_domain = domain ^ "/share"
let value_domain = domain ^ "/value"

let coin_base (t : Dl_sharing.t) ~(name : string) : G.elt =
  G.hash_to_elt t.Dl_sharing.group ~domain:base_domain [ name ]

let generate_share (t : Dl_sharing.t) ~(party : int) ~(name : string) :
    share list =
  Obs_crypto.sign ();
  let ps = t.Dl_sharing.group in
  let g_name = coin_base t ~name in
  let own = Dl_sharing.shares_of t party in
  (* Each owned leaf costs two exponentiations on g_N (the share and the
     DLEQ commitment); from a few leaves a fixed-base table pays off,
     and verifiers of the same coin reuse it via the shared cache. *)
  if List.length own >= 3 then G.prepare_base ps g_name;
  List.map
    (fun (s : Lsss.subshare) ->
      let value = G.exp ps g_name s.value in
      let proof =
        Dleq.prove ps ~domain:share_domain ~x:s.value ~g1:ps.G.g
          ~h1:t.Dl_sharing.leaf_keys.(s.leaf) ~g2:g_name ~h2:value
      in
      { leaf = s.leaf; value; proof })
    own

let check_shape = Share_batch.check_shape

(* A share from a (possibly corrupted) party is accepted only when every
   claimed leaf belongs to that party and every DLEQ proof verifies. *)
let verify_share (t : Dl_sharing.t) ~(party : int) ~(name : string)
    (shares : share list) : bool =
  Obs_crypto.share_verify ();
  let g_name = coin_base t ~name in
  if List.length (Dl_sharing.shares_of t party) >= 3 then
    G.prepare_base t.Dl_sharing.group g_name;
  check_shape t ~party shares
  && Share_batch.verify_proofs t ~domain:share_domain ~base:g_name shares

let value_of_sigma (t : Dl_sharing.t) ~(name : string) ~(bits : int)
    (sigma : G.elt) : int =
  let raw =
    Ro.hash ~domain:value_domain
      [ name; G.elt_to_bytes t.Dl_sharing.group sigma ]
  in
  let v =
    (Char.code raw.[0] lsl 24)
    lor (Char.code raw.[1] lsl 16)
    lor (Char.code raw.[2] lsl 8)
    lor Char.code raw.[3]
  in
  v land ((1 lsl bits) - 1)

(* Combine shares from the parties in [avail] into the coin value.
   [bits] selects how many unpredictable bits to extract (the ABBA
   protocol needs one; the validated-agreement permutation uses 30); at
   most 30.  The shares arrive shape-checked only and are proof-checked
   here in one batch, pruning attributed-bad parties on failure.  The
   coin base (a hash to the group) is derived only once [avail] is
   qualified: below the threshold a call costs one cached lookup.
   [own] is the caller's index and the shares it generated, left out of
   the proof batch when the list under that index equals them. *)
let combine ?own (t : Dl_sharing.t) ~(name : string) ~(avail : Pset.t)
    (shares : (int * share list) list) ?(bits = 1) () : int option =
  if bits < 1 || bits > 30 then invalid_arg "Coin.combine: bits out of range";
  Obs_crypto.combine ();
  Share_batch.combine ?own t ~domain:share_domain
    ~base:(lazy (coin_base t ~name))
    ~avail shares
  |> Option.map (fun (_, sigma) -> value_of_sigma t ~name ~bits sigma)
