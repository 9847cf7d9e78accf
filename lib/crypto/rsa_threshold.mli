(** Practical threshold RSA signatures (Shoup, EUROCRYPT 2000).

    Clients verify a single RSA key (N, e) while the private exponent is
    Shamir-shared over Z{_{p'q'}} by the trusted dealer; shares are
    non-interactive and any [k] valid shares combine into a standard RSA
    signature.  A share carries its validity proof ({!sign_share}) only
    where the receiver checks shares one by one; elsewhere it is bare
    ({!bare_share}).  The reconstruction threshold [k] is a parameter;
    the service key uses k = t + 1.  (The paper's Section 3 also uses
    k = n − t to compress quorum certificates to one signature; that
    costs a proof-checked share per justification and is not used, see
    EXPERIMENTS.md "M2".) *)

type public_key = { n_modulus : Bignum.t; e : Bignum.t; n_parties : int; k : int }

type keys = {
  pk : public_key;
  shares : Bignum.t array;  (** party i holds [shares.(i)] = f(i+1) *)
  v : Bignum.t;  (** verification base (generator of QR{_N}) *)
  vks : Bignum.t array;  (** [vks.(i) = v^{shares.(i)}] *)
}

type proof = { c : Bignum.t; z : Bignum.t }
type share = { signer : int; x : Bignum.t; proof : proof option }
type signature = Bignum.t

val deal : ?bits:int -> n:int -> k:int -> Prng.t -> keys
(** Safe-prime RSA modulus of [bits] bits (default 256; toy-sized),
    e = 65537; requires [n < 65537]. *)

val bare_share : keys -> party:int -> string -> share
(** [x_i = H(M)^{2Δs_i}] alone ([proof = None]). *)

val sign_share : keys -> party:int -> string -> share
(** {!bare_share}'s [x_i] with Shoup's share-correctness proof. *)

val verify_share : keys -> string -> share -> bool
(** Checks the proof; [false] for a bare share. *)

val combine : keys -> string -> share list -> signature option
(** Combines the first [k] shares given (one per signer) and accepts iff
    [y^e = H(M)]; when that fails, the first [k]-subset in signer order
    that verifies.  Never checks a proof, never returns an invalid
    signature. *)

val combine_attributed : keys -> string -> share list -> signature option * int list
(** {!combine}, plus, when the first [k] fail and a subset verifies,
    the signers whose shares fail in place of its top signer.  At most
    C(m, k) combinations for [m] signers. *)

val combine_attempts : unit -> int
(** [k]-share combinations evaluated by this process so far. *)

val verify : public_key -> string -> signature -> bool
(** Standard RSA full-domain-hash verification: [y^e = H(M) mod N]. *)
