(** Certificate-style threshold signatures for generalized adversary
    structures.

    The natural LSSS extension of the unique-signature approach: a share
    on M is H'(M){^{x_l}} per owned leaf with a DLEQ proof, and a
    signature is a sharing-qualified set of verified shares together with
    the recombined H'(M){^x}.  Same interface as a compact threshold
    signature, size proportional to the qualified set (substitution
    documented in DESIGN.md — no compact general-structure scheme was
    known in 2001). *)

type share = Share_batch.share = {
  leaf : int;
  value : Schnorr_group.elt;
  proof : Dleq.t;
}

type certificate = {
  signers : Pset.t;
  shares : (int * share list) list;
  combined : Schnorr_group.elt;  (** H'(M){^x}: the unique signature value *)
}

val sign_share : Dl_sharing.t -> party:int -> string -> share list

val verify_share : Dl_sharing.t -> party:int -> string -> share list -> bool
(** Shape plus proofs; two or more proofs are checked as one batch. *)

val combine :
  Dl_sharing.t -> string -> (int * share list) list -> certificate option
(** [None] unless the signers form a sharing-qualified set.  The shares
    are proof-checked here (one batch, with pruning of attributed-bad
    parties) instead of at receipt. *)

val verify : Dl_sharing.t -> string -> certificate -> bool
(** Re-checks every share proof — as one batch over the whole
    certificate — plus the signer set and the recombination. *)
