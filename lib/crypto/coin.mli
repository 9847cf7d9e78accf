(** The threshold coin-tossing scheme of Cachin, Kursawe and Shoup: the
    source of shared unpredictable randomness that lets the ABBA protocol
    circumvent the FLP impossibility result.

    For a coin named N, party i's share is H'(N){^{x_l}} per owned leaf
    with a DLEQ proof; any sharing-qualified set of verified shares
    recombines to H'(N){^x}, whose hash is the coin value — identical for
    everyone and unpredictable until a qualified set cooperates. *)

type share = Share_batch.share = {
  leaf : int;
  value : Schnorr_group.elt;
  proof : Dleq.t;
}

val coin_base : Dl_sharing.t -> name:string -> Schnorr_group.elt
(** The random group element H'(N) for a coin name. *)

val generate_share : Dl_sharing.t -> party:int -> name:string -> share list

val check_shape : Dl_sharing.t -> party:int -> share list -> bool
(** Structural validity only (share count, leaf bounds, leaf ownership)
    — what a call site checks at receipt, deferring the DLEQ proofs to
    {!combine}. *)

val verify_share :
  Dl_sharing.t -> party:int -> name:string -> share list -> bool
(** Rejects shares with wrong leaves, wrong owners or invalid proofs.
    Two or more proofs are checked as one batch. *)

val combine :
  Dl_sharing.t ->
  name:string ->
  avail:Pset.t ->
  (int * share list) list ->
  ?bits:int ->
  unit ->
  int option
(** Coin value from the shares of the parties in [avail]; [None] if
    [avail] is not sharing-qualified.  [bits] (default 1, max 30)
    selects how many bits to extract.  The shares are proof-checked
    here with one batched check, pruning attributed-bad parties on
    failure. *)
