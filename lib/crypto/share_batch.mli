(** Share verification shared by the DLEQ-based share schemes (threshold
    coin, TDH2 decryption, certificate signatures), whose shares all
    prove the same statement shape [log_g leafkey_l = log_b value].

    There is one verification path: call sites check a share's shape at
    receipt, and {!combine} proof-checks exactly the shares that produce
    its output in one batch. *)

type share = { leaf : int; value : Schnorr_group.elt; proof : Dleq.t }
(** [b^{x_l}] for leaf [l] and scheme base [b], with its DLEQ proof. *)

val check_shape : Dl_sharing.t -> party:int -> share list -> bool
(** Structural validity only: one share per leaf [party] owns, each for
    an existing leaf of that party.  The receipt-time check. *)

val verify_proofs :
  Dl_sharing.t -> domain:string -> base:Schnorr_group.elt -> share list ->
  bool
(** The proofs of shape-checked shares: one {!Dleq.batch_verify} when
    there are at least two, per-proof {!Dleq.verify} otherwise. *)

val combine :
  ?own:int * share list ->
  Dl_sharing.t ->
  domain:string ->
  base:Schnorr_group.elt Lazy.t ->
  avail:Pset.t ->
  (int * share list) list ->
  ((int * share list) list * Schnorr_group.elt) option
(** Batch-check every proof at once; on failure attribute bad proofs by
    bisection, drop the submitting parties and retry, until the batch is
    clean or the survivors are no longer sharing-qualified ([None]).
    Returns the surviving parties' shares and their recombination
    [b^x] in the exponent.  [base] is forced only past the qualification
    gate, so a below-threshold call never derives it.

    [own = (me, mine)] names the caller's party index and the share list
    it generated itself: shares listed under [me] that equal [mine]
    share by share count in the recombination but leave the proof
    batch.  Any other list under [me] is proof-checked as usual. *)
