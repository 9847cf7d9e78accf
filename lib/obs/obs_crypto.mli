(** Global crypto operation counters.

    lib/num, lib/group and lib/crypto sit below anything a registry
    handle could be threaded through, so their instrumentation is a set
    of global counters behind one flag.  Disabled (the default), each
    site costs a single branch on a bool ref — effectively free.  The
    counters are process-global: callers that want per-run numbers
    bracket the run with [reset]/[counts] (the bench harness does). *)

type kind =
  | Modexp  (** modular exponentiation ([Bignum.pow_mod]) *)
  | Hash_to_group  (** hashing onto the group *)
  | Sign  (** signature / signature-share generation *)
  | Share_proof
      (** signature-share correctness proofs generated (RSA and
          certificate shares; coin and TDH2 shares count under [Sign]) *)
  | Verify  (** full signature or assembled-certificate checks *)
  | Share_verify  (** per-share proof checks (coin, TDH2, RSA, certs) *)
  | Combine  (** threshold combination of shares *)
  | Modexp_window  (** [pow_mod] calls served by the Montgomery window *)
  | Multi_exp  (** simultaneous multi-exponentiations (Shamir/Straus) *)
  | Fixed_base_exp  (** exponentiations served by a fixed-base table *)
  | Batch_verify  (** random-linear-combination batched proof checks *)
  | Batch_verify_size  (** total proofs covered by batched checks *)
  | Batch_verify_fallback  (** failed batches that triggered bisection *)
  | Lazy_verify_hit  (** lazy combines whose optimistic check passed *)
  | Recomb_cache_hit  (** recombination vectors served from the LRU *)
  | Recomb_cache_miss  (** recombination vectors recomputed *)

val all_kinds : kind list
val name : kind -> string

type direction =
  | Cost  (** work done: fewer is better *)
  | Path  (** which verification path ran: reported, never gated *)

val direction : kind -> direction
(** [Batch_verify], [Batch_verify_size], [Lazy_verify_hit] and
    [Recomb_cache_hit] are [Path]; every other kind is a [Cost]. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool
val reset : unit -> unit

val count : kind -> int

val total : unit -> int

(** {2 Instrumentation entry points} (no-ops unless enabled) *)

val modexp : unit -> unit
val hash_to_group : unit -> unit
val sign : unit -> unit
val share_proof : unit -> unit
val verify : unit -> unit
val share_verify : unit -> unit
val combine : unit -> unit
val modexp_window : unit -> unit
val multi_exp : unit -> unit
val fixed_base_exp : unit -> unit

val batch_verify : int -> unit
(** [batch_verify k]: one batched check covering [k] proofs (increments
    [Batch_verify] by one and [Batch_verify_size] by [k]). *)

val batch_verify_fallback : unit -> unit
val lazy_verify_hit : unit -> unit
val recomb_cache_hit : unit -> unit
val recomb_cache_miss : unit -> unit
