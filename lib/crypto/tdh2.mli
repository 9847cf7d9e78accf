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

val is_valid : Dl_sharing.t -> ciphertext -> bool
(** Public consistency check; servers must refuse to decrypt invalid
    ciphertexts (the CCA2 barrier). *)

val decryption_share :
  Dl_sharing.t -> party:int -> ciphertext -> dec_share list option
(** [None] when the ciphertext is invalid. *)

val check_shape : Dl_sharing.t -> party:int -> dec_share list -> bool
(** Structural validity only (share count, leaf bounds, ownership) —
    what a call site checks at receipt, deferring the DLEQ proofs to
    {!combine}. *)

val verify_share :
  Dl_sharing.t -> party:int -> ciphertext -> dec_share list -> bool
(** Shape plus proofs; two or more proofs are checked as one batch. *)

val combine :
  Dl_sharing.t ->
  ciphertext ->
  avail:Pset.t ->
  (int * dec_share list) list ->
  string option
(** Recover the plaintext from shares of a sharing-qualified set.  The
    shares are proof-checked here with one batched check, pruning
    attributed-bad parties on failure. *)

val ciphertext_to_bytes : Dl_sharing.t -> ciphertext -> string
val ciphertext_of_bytes : Dl_sharing.t -> string -> ciphertext option
