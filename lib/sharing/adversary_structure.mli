(** Generalized adversary structures (paper, Section 4).

    An adversary structure A is the monotone family of party subsets the
    adversary may corrupt; alongside it each structure carries a monotone
    sharing formula for the associated linear secret sharing scheme.  The
    protocols of Section 3 are generalized by replacing their counting
    thresholds with the three monotone predicates below (Section 4.2),
    which reduce to n−t / 2t+1 / t+1 in the threshold case. *)

type t

val threshold : n:int -> t:int -> t
(** Classic t-out-of-n structure (fast paths for all predicates). *)

val hybrid_threshold : n:int -> byzantine:int -> crash:int -> t
(** Section 6 "hybrid failure structure": up to [byzantine] arbitrary
    corruptions plus, separately, up to [crash] crash failures.  Crashed
    servers are silent but never lie or leak keys, so n > 3b + 2c
    suffices (instead of n > 3(b+c)): e.g. 6 servers tolerate one
    Byzantine plus one crashed, where uniform Byzantine treatment would
    need 7.  [threshold_of] reports [byzantine] (the sharing threshold
    is b + 1). *)

val of_access_formula : n:int -> Monotone_formula.t -> t
(** Structure whose corruptible sets are exactly the unqualified sets of
    the formula (paper Example 1). *)

val of_maximal_sets : n:int -> access:Monotone_formula.t -> Pset.t list -> t
(** Structure with explicitly listed maximal corruptible sets and a
    hand-picked sharing formula (paper Example 2); use
    {!check_sharing_compatible} to validate the pairing. *)

val n : t -> int

val access_formula : t -> Monotone_formula.t
(** The sharing formula used by the threshold cryptography. *)

val threshold_of : t -> int option
(** [Some t] for plain threshold structures; [Some b] (the Byzantine
    bound, which is also the sharing threshold minus one) for hybrid
    structures. *)

val min_big_quorum_size : t -> int option
(** Cardinality of the smallest big quorum for counting-based structures
    (n − t, or n − b − c for hybrid ones). *)

val is_corruptible : t -> Pset.t -> bool
val is_qualified : t -> Pset.t -> bool

val big_quorum : t -> Pset.t -> bool
(** Replaces "received from at least n − t parties": the complement of
    the set is corruptible. *)

val contains_honest : t -> Pset.t -> bool
(** Replaces "at least t + 1 parties": the set is not corruptible, hence
    surely contains an honest party. *)

val two_cover : t -> Pset.t -> bool
(** Replaces "at least 2t + 1 parties": removing any corruptible set
    still leaves a non-corruptible remainder. *)

val maximal_adversary_sets : t -> Pset.t list
(** A{^*}: enumerated (and cached); exhaustive search for formula-defined
    structures with n ≤ 24. *)

val satisfies_q3 : t -> bool
(** No three corruptible sets cover all parties — necessary and
    sufficient for asynchronous Byzantine agreement (n > 3t specializes
    this). *)

val satisfies_q2 : t -> bool

val check_sharing_compatible : t -> bool
(** Secrecy (no corruptible set is sharing-qualified) and availability
    (the complement of every corruptible set is sharing-qualified). *)

val max_uniform_tolerance : t -> int
(** Largest f such that every f-subset is corruptible: the best uniform
    threshold implied by the structure. *)
