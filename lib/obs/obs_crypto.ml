(* Global crypto operation counters.

   The number-theoretic layers (lib/num, lib/group, lib/crypto) sit
   below any place a registry could be threaded through, and their hot
   paths (modular exponentiation above all) must not pay for plumbing.
   So the sink is a handful of global ints behind one [enabled] flag:
   disabled — the default — each instrumentation site costs a single
   branch on an immediate bool, which is as close to free as OCaml
   gets without compiling the calls out. *)

let enabled_flag = ref false

type kind =
  | Modexp  (* Bignum.pow_mod: the dominant cost in every protocol *)
  | Hash_to_group  (* hashing onto the group, for coin/TDH2 bases *)
  | Sign  (* ordinary and threshold signature share generation *)
  | Share_proof  (* signature-share correctness proofs generated *)
  | Verify  (* ordinary signature / assembled certificate checks *)
  | Share_verify  (* per-share proof checks: coin, TDH2, RSA, certs *)
  | Combine  (* Lagrange/threshold combination of shares *)
  | Modexp_window  (* pow_mod calls served by the Montgomery window *)
  | Multi_exp  (* simultaneous multi-exponentiations (Shamir/Straus) *)
  | Fixed_base_exp  (* exponentiations served by a fixed-base table *)
  | Batch_verify  (* random-linear-combination batched proof checks *)
  | Batch_verify_size  (* total proofs covered by those batched checks *)
  | Batch_verify_fallback  (* failed batches that triggered bisection *)
  | Lazy_verify_hit  (* lazy combines whose optimistic check succeeded *)
  | Recomb_cache_hit  (* recombination vectors served from the LRU *)
  | Recomb_cache_miss  (* recombination vectors recomputed *)

let n_kinds = 16

let index = function
  | Modexp -> 0
  | Hash_to_group -> 1
  | Sign -> 2
  | Verify -> 3
  | Share_verify -> 4
  | Combine -> 5
  | Modexp_window -> 6
  | Multi_exp -> 7
  | Fixed_base_exp -> 8
  | Batch_verify -> 9
  | Batch_verify_size -> 10
  | Batch_verify_fallback -> 11
  | Lazy_verify_hit -> 12
  | Recomb_cache_hit -> 13
  | Recomb_cache_miss -> 14
  | Share_proof -> 15

let name = function
  | Modexp -> "modexp"
  | Hash_to_group -> "hash_to_group"
  | Sign -> "sign"
  | Share_proof -> "share_proof"
  | Verify -> "verify"
  | Share_verify -> "share_verify"
  | Combine -> "combine"
  | Modexp_window -> "modexp_window"
  | Multi_exp -> "multi_exp"
  | Fixed_base_exp -> "fixed_base_exp"
  | Batch_verify -> "batch_verify"
  | Batch_verify_size -> "batch_verify_size"
  | Batch_verify_fallback -> "batch_verify_fallback"
  | Lazy_verify_hit -> "lazy_verify_hits"
  | Recomb_cache_hit -> "recomb_cache_hits"
  | Recomb_cache_miss -> "recomb_cache_misses"

(* What a count means to a regression gate.  A [Cost] counts work done,
   so fewer is better; a [Path] count records which verification path
   ran (batched, optimistic, cached) and is reported without a
   direction — more batch checks or cache hits are not a slowdown. *)
type direction = Cost | Path

let direction = function
  | Modexp | Hash_to_group | Sign | Share_proof | Verify | Share_verify
  | Combine | Modexp_window | Multi_exp | Fixed_base_exp
  | Batch_verify_fallback | Recomb_cache_miss ->
    Cost
  | Batch_verify | Batch_verify_size | Lazy_verify_hit | Recomb_cache_hit ->
    Path

let all_kinds =
  [ Modexp; Hash_to_group; Sign; Share_proof; Verify; Share_verify;
    Combine; Modexp_window; Multi_exp; Fixed_base_exp; Batch_verify;
    Batch_verify_size; Batch_verify_fallback; Lazy_verify_hit;
    Recomb_cache_hit; Recomb_cache_miss ]

let counts_arr = Array.make n_kinds 0

let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let reset () = Array.fill counts_arr 0 n_kinds 0

let count kind = counts_arr.(index kind)
let total () = Array.fold_left ( + ) 0 counts_arr

(* Instrumentation entry points, one per kind so call sites stay
   grep-able.  The [if] on the deref'd flag is the whole disabled-path
   cost. *)
let modexp () =
  if !enabled_flag then counts_arr.(0) <- counts_arr.(0) + 1

let hash_to_group () =
  if !enabled_flag then counts_arr.(1) <- counts_arr.(1) + 1

let sign () = if !enabled_flag then counts_arr.(2) <- counts_arr.(2) + 1
let verify () = if !enabled_flag then counts_arr.(3) <- counts_arr.(3) + 1

let share_verify () =
  if !enabled_flag then counts_arr.(4) <- counts_arr.(4) + 1

let combine () = if !enabled_flag then counts_arr.(5) <- counts_arr.(5) + 1

let modexp_window () =
  if !enabled_flag then counts_arr.(6) <- counts_arr.(6) + 1

let multi_exp () = if !enabled_flag then counts_arr.(7) <- counts_arr.(7) + 1

let fixed_base_exp () =
  if !enabled_flag then counts_arr.(8) <- counts_arr.(8) + 1

(* [batch_verify k] records one batched check covering [k] proofs, so
   average batch size = batch_verify_size / batch_verify. *)
let batch_verify k =
  if !enabled_flag then begin
    counts_arr.(9) <- counts_arr.(9) + 1;
    counts_arr.(10) <- counts_arr.(10) + k
  end

let batch_verify_fallback () =
  if !enabled_flag then counts_arr.(11) <- counts_arr.(11) + 1

let lazy_verify_hit () =
  if !enabled_flag then counts_arr.(12) <- counts_arr.(12) + 1

let recomb_cache_hit () =
  if !enabled_flag then counts_arr.(13) <- counts_arr.(13) + 1

let recomb_cache_miss () =
  if !enabled_flag then counts_arr.(14) <- counts_arr.(14) + 1

let share_proof () =
  if !enabled_flag then counts_arr.(15) <- counts_arr.(15) + 1
