(** The trusted dealer's output (paper, Section 2): everything one
    deployment needs, bundled per adversary structure — the shared group,
    independent DL sharings for the threshold coin and TDH2, the service
    signature scheme, and one Schnorr keypair per server, whose
    signatures are also the shares of the quorum certificates used as
    protocol justifications.

    In the simulator every party holds the record but honest code reads
    only its own secrets; corrupted parties may read everything, which
    faithfully models full corruption. *)

type service_keys =
  | Rsa_keys of Rsa_threshold.keys  (** threshold structures *)
  | Cert_keys of Dl_sharing.t  (** generalized structures *)

type sig_share =
  | Rsa_share of Rsa_threshold.share
  | Cert_share of int * Cert_sig.share list

type service_signature =
  | Rsa_signature of Rsa_threshold.signature
  | Cert_signature of Cert_sig.certificate

type t = {
  group : Schnorr_group.params;
  structure : Adversary_structure.t;
  coin : Dl_sharing.t;
  enc : Dl_sharing.t;
  service : service_keys;
  party_keys : Schnorr_sig.keypair array;
}

val deal : ?group_bits:int -> ?rsa_bits:int -> seed:int -> Adversary_structure.t -> t
(** Run the trusted dealer (defaults: 128-bit group, 256-bit RSA). *)

val n : t -> int
val party_public_key : t -> int -> Schnorr_group.elt

(** {2 Individual server signatures} *)

val sign : t -> party:int -> string -> Schnorr_sig.signature
val verify_party_signature : t -> party:int -> string -> Schnorr_sig.signature -> bool

(** {2 Service (threshold) signatures} *)

val service_sign_share : t -> party:int -> string -> sig_share
(** A share with its correctness proof, for receivers that check each
    share as it arrives ({!service_verify_share}). *)

val service_reply_share : t -> party:int -> string -> sig_share
(** A share for receivers that combine first: a bare RSA share, or
    under a generalized structure {!service_sign_share}'s. *)

val service_verify_share : t -> party:int -> string -> sig_share -> bool
(** Checks the share's proof: [false] for a bare RSA share. *)

val service_combine : t -> string -> sig_share list -> service_signature option
(** Succeeds once the contributing servers can reconstruct (k = t+1 RSA
    shares, or a sharing-qualified set of certificate shares).

    A returned signature already passes {!service_verify} on the same
    message, so a caller needs no second check: an RSA combination is
    accepted only when y^e = H(M) holds, and certificate shares are
    shape-checked and batch proof-checked before they are recombined.
    Only a signature that arrives from elsewhere (decoded with
    {!service_signature_of_bytes}) needs {!service_verify}. *)

val service_combine_attributed :
  t -> string -> sig_share list -> service_signature option * int list
(** {!service_combine}, same contract, that also names the signers
    whose shares are bad.  A certificate share list of the wrong shape
    (leaves its signer does not own, or the wrong number) is named at
    once and left out.  Otherwise only a failed combination of a
    sharing-qualified set (or a certificate combine that pruned
    someone) looks further: RSA by {!Rsa_threshold.combine_attributed}'s
    subset search, certificates by per-share checks. *)

val sig_share_signer : sig_share -> int
(** The server a share claims to come from — a field read, no check. *)

val service_verify : t -> string -> service_signature -> bool
(** The public check of a combined signature that comes from elsewhere
    (a checkpoint or epoch certificate off the wire, a reply certificate
    checked by a third party); one this replica combined itself already
    passes it. *)

val service_signature_to_bytes : t -> service_signature -> string
(** Byte form of a combined service signature, for certificates that
    cross the wire (e.g. checkpoint certificates during state
    transfer).  Deterministic: equal signatures encode equally. *)

val service_signature_of_bytes : t -> string -> service_signature option
(** Inverse of {!service_signature_to_bytes} under the same keyring:
    [None] on malformed bytes, on group elements outside the keyring's
    group, or when the encoded arm does not match the keyring's service
    scheme.  Canonical: decimals must be in [string_of_int] form,
    naturals minimal, elements fixed-width and signers strictly
    ascending, so bytes that decode re-encode to themselves.  A decoded
    signature still carries no authority until {!service_verify}
    accepts it. *)

val sig_share_to_bytes : t -> sig_share -> string
(** Byte form of an individual signature share, for partial answers that
    cross the wire (service replies).  Deterministic: equal shares
    encode equally; a bare RSA share has its own proof-less form. *)

val sig_share_of_bytes : t -> string -> sig_share option
(** Inverse of {!sig_share_to_bytes} under the same keyring: [None] on
    malformed bytes, out-of-range parties, group elements outside the
    keyring's group, or an arm mismatch with the keyring's service
    scheme.  Canonical in the same sense as
    {!service_signature_of_bytes}.  A decoded share carries no
    authority until {!service_verify_share} accepts it. *)

(** {2 Quorum certificates}

    Transferable evidence that a big-quorum of servers endorsed a
    statement — the protocol justifications of the CKS00 agreement
    protocol and the delivery certificates of consistent broadcast.  A
    share is one server's Schnorr signature on the statement ({!sign});
    a certificate is the vector of a big quorum's shares, checked one
    signature at a time. *)

type cert_share = Schnorr_sig.signature
type cert = (int * cert_share) list

val cert_share : t -> party:int -> string -> cert_share
(** {!sign}. *)

type party_verifier = party:int -> string -> Schnorr_sig.signature -> bool
(** A check of one server's Schnorr signature: {!verify_party_signature}
    unless a caller supplies its own (a memoizing wrapper). *)

val make_cert : t -> string -> (int * cert_share) list -> cert option
(** [None] unless the distinct endorsers form a big quorum; an endorser
    named twice counts once and keeps one entry.  Shares must have been
    verified by the caller; the statement is not read. *)

val verify_cert : ?verify:party_verifier -> t -> string -> cert -> bool
(** [true] iff the distinct endorsers form a big quorum and [verify]
    accepts each one's signature (one entry per endorser is checked). *)

val cert_size : t -> cert -> int
(** Approximate wire size in bytes, for the message-size experiments:
    4 + 2·{!Schnorr_group.exponent_len} per entry. *)
