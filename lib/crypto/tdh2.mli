(** TDH2: the Shoup–Gennaro threshold cryptosystem, secure against
    adaptive chosen-ciphertext attack in the random-oracle model.

    CCA security is what makes secure *causal* atomic broadcast work: an
    adversary seeing a ciphertext in transit can neither decrypt it nor
    maul it into a related ciphertext, so client requests stay
    confidential and unlinkable until the servers agree to deliver them
    (paper, Sections 3 and 5.2). *)

type ciphertext = {
  c : string;  (** symmetric part *)
  label : string;  (** authenticated label (e.g. client identity) *)
  u : Schnorr_group.elt;
  u' : Schnorr_group.elt;
  e : Bignum.t;
  f : Bignum.t;
}

type dec_share = Share_batch.share = {
  leaf : int;
  value : Schnorr_group.elt;
  proof : Dleq.t;
}

val encrypt : Dl_sharing.t -> Prng.t -> label:string -> string -> ciphertext

type checked
(** A ciphertext whose consistency proof ([e], [f]) passed on this
    replica ([u] and [u'] are subgroup members by their type).  Servers must refuse to
    decrypt an invalid ciphertext (the CCA2 barrier); {!share} and
    {!combine} take only a [checked], so the check runs once, where the
    ciphertext enters, and never again.  Protocol code decodes and
    checks in one step with {!checked_of_bytes}. *)

val check : Dl_sharing.t -> ciphertext -> checked option
(** The consistency proof. *)

val checked_of_bytes : Dl_sharing.t -> string -> checked option
(** {!ciphertext_of_bytes} (which tests membership of [u] and [u'])
    followed by {!check}. *)

val ciphertext : checked -> ciphertext

val is_valid : Dl_sharing.t -> ciphertext -> bool
(** [check t ct <> None]; for callers holding a raw record. *)

val share : Dl_sharing.t -> party:int -> checked -> dec_share list
(** [party]'s decryption shares, one per leaf it owns, each [u^{x_l}]
    with its DLEQ proof. *)

val decryption_share :
  Dl_sharing.t -> party:int -> ciphertext -> dec_share list option
(** {!check}, then {!share}: [None] when the ciphertext is invalid. *)

val check_shape : Dl_sharing.t -> party:int -> dec_share list -> bool
(** Structural validity only (share count, leaf bounds, ownership) —
    what a call site checks at receipt, deferring the DLEQ proofs to
    {!combine}. *)

val verify_share :
  Dl_sharing.t -> party:int -> checked -> dec_share list -> bool
(** Shape plus proofs; two or more proofs are checked as one batch. *)

val combine :
  ?own:int * dec_share list ->
  Dl_sharing.t ->
  checked ->
  avail:Pset.t ->
  (int * dec_share list) list ->
  string option
(** Recover the plaintext from shares of a sharing-qualified set.  The
    shares are proof-checked here with one batched check, pruning
    attributed-bad parties on failure; the ciphertext is not checked
    again.  An unqualified [avail] costs only the qualification test.
    [own = (me, mine)]: the caller's index and the shares it made with
    {!share}; a list under [me] equal to [mine] counts without a proof
    check (see {!Share_batch.combine}). *)

val ciphertext_to_bytes : Dl_sharing.t -> ciphertext -> string
val ciphertext_of_bytes : Dl_sharing.t -> string -> ciphertext option
(** Inverse of {!ciphertext_to_bytes}: [None] on malformed bytes or a
    group element outside the subgroup.  Canonical: elements must be
    fixed-width and [e], [f] minimal big-endian, so bytes that decode
    re-encode to themselves (and so hash to the same slot).  The
    consistency proof is not checked: {!checked_of_bytes} does both. *)
