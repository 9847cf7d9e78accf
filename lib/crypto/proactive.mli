(** Proactive share refresh and membership change (paper, Section 6):
    one resharing primitive.  Every dealer re-shares each old leaf value
    it owns over a target access structure; any old-structure
    sharing-qualified dealer set recombines into the next epoch's
    sharing of the same secret, under the same public key.  A membership
    change targets a different structure (a replica added by inclusion,
    removed by omission); a proactive refresh targets the current one.
    Either way the new sharing combines fresh random sharings, one of
    them from an honest dealer, so shares a mobile adversary took in an
    earlier epoch do not combine with the new ones.

    Agreeing on the epoch boundary asynchronously is {!Epoch}'s part:
    it orders certified advances through the atomic broadcast. *)

type target = {
  t_structure : Adversary_structure.t;
  t_scheme : Lsss.scheme;
}

val target_of : Dl_sharing.t -> Adversary_structure.t -> target
(** The target structure paired with its LSSS scheme over the same
    group. *)

type reshare_package = {
  r_dealer : int;
  r_deals : (int * Lsss.subshare list * Schnorr_group.elt array) list;
      (** old leaf → fresh target-scheme sharing of its value, with
          per-target-leaf keys g{^w} *)
}

val make_reshare :
  Dl_sharing.t -> target -> dealer:int -> Prng.t -> reshare_package

val verify_reshare : Dl_sharing.t -> target -> reshare_package -> bool
(** Covers exactly the dealer's old leaves; every sub-dealing is a
    well-formed target sharing whose exponent recombination lands on the
    old leaf's public key. *)

val apply_reshares :
  Dl_sharing.t ->
  target ->
  reshare_package list ->
  (Dl_sharing.t, string) result
(** Recombine verified packages from distinct, old-structure
    sharing-qualified dealers into the target structure's sharing; the
    public key is checked unchanged. *)

val run_reshare :
  Dl_sharing.t ->
  structure:Adversary_structure.t ->
  dealers:Pset.t ->
  Prng.t ->
  (Dl_sharing.t, string) result
(** One synchronous resharing round: contributions from [dealers]
    (those holding old shares), dropped when invalid; fails unless the
    accepted dealers surely contain an honest party and can recombine. *)
