(* Dealer-generated sharing of a discrete-log secret over an adversary
   structure.

   The trusted dealer of the model (paper, Section 2) picks x uniformly
   in Z_q, shares it with the Benaloh-Leichter LSSS for the structure's
   sharing formula, and publishes g^x together with one verification key
   g^{x_l} per leaf.  Both the threshold coin and the TDH2 cryptosystem
   are instances over such a sharing. *)

module B = Bignum
module G = Schnorr_group
module AS = Adversary_structure

type t = {
  group : G.params;
  structure : AS.t;
  scheme : Lsss.scheme;
  subshares : Lsss.subshare list;  (* secret; party i reads only its own *)
  public_key : G.elt;
  leaf_keys : G.elt array;  (* leaf id -> g^{x_leaf} *)
}

let deal (group : G.params) (structure : AS.t) (rng : Prng.t) : t =
  let scheme =
    Lsss.build ~modulus:(G.order group) (AS.access_formula structure)
  in
  let secret = G.random_exponent group rng in
  let subshares = Lsss.share scheme rng ~secret in
  let leaf_keys = Array.make (Lsss.num_leaves scheme) (G.one group) in
  List.iter
    (fun (s : Lsss.subshare) -> leaf_keys.(s.leaf) <- G.exp_g group s.value)
    subshares;
  { group;
    structure;
    scheme;
    subshares;
    public_key = G.exp_g group secret;
    leaf_keys }

let shares_of (t : t) (party : int) : Lsss.subshare list =
  Lsss.shares_of_party t.subshares party

(* Combine per-leaf group elements sigma_l = base^{x_l} from the leaves
   owned by [avail] into base^x.  [None] when [avail] is not qualified
   under the sharing formula. *)
let combine_in_exponent (t : t) ~(avail : Pset.t)
    ~(leaf_values : (int * G.elt) list) : G.elt option =
  match Lsss.recombination t.scheme avail with
  | None -> None
  | Some coeffs ->
    let lookup leaf =
      match List.assoc_opt leaf leaf_values with
      | Some v -> v
      | None -> invalid_arg "Dl_sharing.combine_in_exponent: missing leaf"
    in
    Some
      (G.multi_exp t.group
         (List.map (fun (leaf, c) -> (lookup leaf, c)) coeffs))
