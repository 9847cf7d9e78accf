(** Chaum–Pedersen proofs of discrete-log equality (Fiat–Shamir).

    The share-validity proof of the threshold coin and of TDH2: it makes
    both schemes robust by letting anyone reject bogus shares from
    corrupted servers.  Sound in the random-oracle model.

    Proofs carry their commitment pair [(a1, a2)] so that k proofs over
    shared bases can be checked together: k hash re-checks plus one
    random-linear-combination multi-exponentiation ({!batch_verify}),
    with bisection attribution of bad proofs when the batch fails
    ({!batch_find_bad}).  {!verify} and {!to_bytes} ignore the carried
    commitments, so the single-proof check is unchanged from the seed. *)

type t = {
  c : Bignum.t;
  z : Bignum.t;
  a1 : Schnorr_group.elt;  (** prover commitment [g1^r] *)
  a2 : Schnorr_group.elt;  (** prover commitment [g2^r] *)
}

type statement = {
  g1 : Schnorr_group.elt;
  h1 : Schnorr_group.elt;
  g2 : Schnorr_group.elt;
  h2 : Schnorr_group.elt;
}
(** The claim [log_{g1} h1 = log_{g2} h2], bundled for batch calls. *)

val prove :
  Schnorr_group.params ->
  domain:string ->
  x:Bignum.t ->
  g1:Schnorr_group.elt -> h1:Schnorr_group.elt ->
  g2:Schnorr_group.elt -> h2:Schnorr_group.elt ->
  t
(** Proof that [log_{g1} h1 = log_{g2} h2 = x].  The commitment nonce is
    derived deterministically from witness and statement (RFC-6979
    style), so proving is stateless. *)

val verify :
  Schnorr_group.params ->
  domain:string ->
  g1:Schnorr_group.elt -> h1:Schnorr_group.elt ->
  g2:Schnorr_group.elt -> h2:Schnorr_group.elt ->
  t -> bool
(** Also validates group membership of [h1], [h2].  Checks only [(c, z)]
    — the carried commitments do not participate. *)

val verify_one :
  Schnorr_group.params -> domain:string -> statement * t -> bool
(** Exact single-proof check used on the batch path: {!verify} plus the
    binding of the carried commitments to the challenge, so a proof that
    would poison batches can never pass attribution. *)

val batch_verify :
  Schnorr_group.params -> domain:string -> (statement * t) list -> bool
(** Check every proof of the batch at once: per-proof range, subgroup
    (Jacobi-symbol) and challenge-hash checks, then one folded
    multi-exponentiation under deterministic 64-bit random-linear-
    combination coefficients.  All statements must share [g1] and [g2].
    A batch with any invalid proof is rejected except with probability
    2{^-64} per coefficient draw.  Empty batches pass. *)

val batch_find_bad :
  Schnorr_group.params -> domain:string -> (statement * t) list -> int list
(** Indices of the invalid proofs, attributed by bisection over failing
    sub-batches (singletons decided exactly with {!verify_one}).
    Returns [[]] iff {!batch_verify} accepts. *)

val to_bytes : Schnorr_group.params -> t -> string
(** Serializes [(c, z)] only, as in the seed. *)
