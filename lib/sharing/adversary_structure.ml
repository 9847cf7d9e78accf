(* Generalized adversary structures (paper, Section 4).

   An adversary structure A is the monotone (subset-closed) family of
   party subsets that the adversary may corrupt.  Alongside A, each
   structure carries a monotone *sharing formula* F describing the linear
   secret sharing scheme used by the threshold cryptography.  The two are
   related but not identical: the deployment is sound when

     secrecy:       every corruptible set is unqualified under F, and
     availability:  the complement of every corruptible set is qualified.

   (For the simple threshold case and for the paper's Example 1 the
   families coincide exactly; for Example 2 the sharing tolerates strictly
   more unqualified sets than the trust assumption requires, which is
   harmless — see {!check_sharing_compatible}.)

   The protocols of Section 3 are generalized by replacing their counting
   thresholds with the monotone predicates below (Section 4.2):

   - "n - t values"  -> a set whose complement is corruptible      [big_quorum]
   - "2t + 1 values" -> even after removing any corruptible set,
                        the rest is still not corruptible          [two_cover]
   - "t + 1 values"  -> a set that is not corruptible, hence
                        guaranteed to contain an honest party      [contains_honest]

   In the threshold case these coincide exactly with n-t, 2t+1, t+1. *)

type t = {
  n : int;
  kind : kind;
  access : Monotone_formula.t;  (* sharing formula *)
  mutable maximal_cache : Pset.t list option;
}

and kind =
  | Threshold_kind of int  (** classic t-out-of-n; fast paths apply *)
  | Complement_kind  (** corruptible = complement of the sharing formula *)
  | Explicit_kind of Pset.t list  (** corruptible = subset of a listed set *)
  | Hybrid_kind of int * int
      (** Section 6 "hybrid failure structures": up to [b] Byzantine
          corruptions and, separately, up to [c] crash failures.  Crashed
          parties are silent but never lie and never leak key material,
          so the quorum arithmetic improves: n > 3b + 2c suffices instead
          of n > 3(b + c). *)

let n t = t.n
let access_formula t = t.access

let threshold ~n ~t =
  if t < 0 || t >= n then invalid_arg "Adversary_structure.threshold";
  { n;
    kind = Threshold_kind t;
    access = Monotone_formula.simple_threshold ~n ~k:(t + 1);
    maximal_cache = None }

(* Hybrid failure structure: secrecy is threatened only by the b
   Byzantine corruptions (crashes do not leak), so the sharing threshold
   is b + 1; liveness must survive b liars plus c silent parties. *)
let hybrid_threshold ~n ~byzantine ~crash =
  if byzantine < 0 || crash < 0 || byzantine + crash >= n then
    invalid_arg "Adversary_structure.hybrid_threshold";
  { n;
    kind = Hybrid_kind (byzantine, crash);
    access = Monotone_formula.simple_threshold ~n ~k:(byzantine + 1);
    maximal_cache = None }

(* The adversary structure is exactly the complement of the access
   formula: corruptible = unqualified (paper, Section 4.1 and Example 1). *)
let of_access_formula ~n access =
  if n < 1 || n > Pset.max_parties then
    invalid_arg "Adversary_structure.of_access_formula: bad n";
  { n; kind = Complement_kind; access; maximal_cache = None }

(* Explicitly listed maximal corruptible sets, with a hand-picked sharing
   formula (paper, Example 2). *)
let of_maximal_sets ~n ~access (sets : Pset.t list) =
  if n < 1 || n > Pset.max_parties then
    invalid_arg "Adversary_structure.of_maximal_sets: bad n";
  if sets = [] then invalid_arg "Adversary_structure.of_maximal_sets: empty";
  { n; kind = Explicit_kind sets; access; maximal_cache = None }

let threshold_of t =
  match t.kind with
  | Threshold_kind k -> Some k
  | Hybrid_kind (b, _) -> Some b
  | Complement_kind | Explicit_kind _ -> None

(* Cardinality of the smallest big quorum, for counting-based kinds. *)
let min_big_quorum_size t =
  match t.kind with
  | Threshold_kind k -> Some (t.n - k)
  | Hybrid_kind (b, c) -> Some (t.n - b - c)
  | Complement_kind | Explicit_kind _ -> None

let is_corruptible t s =
  match t.kind with
  | Threshold_kind k -> Pset.card s <= k
  | Hybrid_kind (b, _) -> Pset.card s <= b
  | Complement_kind -> not (Monotone_formula.eval t.access s)
  | Explicit_kind sets -> List.exists (fun a -> Pset.subset s a) sets

let is_qualified t s = not (is_corruptible t s)

(* Wait-predicate replacing "received from at least n - t parties". *)
let big_quorum t (s : Pset.t) : bool =
  match t.kind with
  | Threshold_kind k -> Pset.card s >= t.n - k
  | Hybrid_kind (b, c) -> Pset.card s >= t.n - b - c
  | Complement_kind | Explicit_kind _ ->
    is_corruptible t (Pset.complement t.n s)

(* Wait-predicate replacing "received from at least t + 1 parties":
   guarantees at least one honest member. *)
let contains_honest t (s : Pset.t) : bool =
  match t.kind with
  | Threshold_kind k -> Pset.card s >= k + 1
  | Hybrid_kind (b, _) -> Pset.card s >= b + 1
  | Complement_kind | Explicit_kind _ -> is_qualified t s

(* All maximal corruptible sets A^*. *)
let maximal_adversary_sets t : Pset.t list =
  match t.maximal_cache with
  | Some l -> l
  | None ->
    let l =
      match t.kind with
      | Explicit_kind sets ->
        (* Drop sets contained in another listed set. *)
        List.filter
          (fun a ->
            not
              (List.exists
                 (fun b -> (not (Pset.equal a b)) && Pset.subset a b)
                 sets))
          sets
      | Threshold_kind _ | Hybrid_kind _ | Complement_kind ->
        (* S is maximal corruptible iff corruptible and S + {i} is
           qualified for every i outside S. *)
        let out = ref [] in
        Pset.iter_subsets t.n (fun s ->
            if
              is_corruptible t s
              && Pset.for_all
                   (fun i -> Pset.mem i s || is_qualified t (Pset.add i s))
                   (Pset.full t.n)
            then out := s :: !out);
        List.rev !out
    in
    t.maximal_cache <- Some l;
    l

(* Wait-predicate replacing "received from at least 2t + 1 parties":
   even after discarding any maximal corruptible set, what remains is
   still qualified (hence contains an honest party under any corruption
   pattern in A). *)
let two_cover t (s : Pset.t) : bool =
  match t.kind with
  | Threshold_kind k -> Pset.card s >= (2 * k) + 1
  | Hybrid_kind (b, _) -> Pset.card s >= (2 * b) + 1
  | Complement_kind | Explicit_kind _ ->
    List.for_all
      (fun a -> is_qualified t (Pset.diff s a))
      (maximal_adversary_sets t)

(* Q^3 condition (Hirt-Maurer): no three corruptible sets cover P.
   Necessary and sufficient for asynchronous Byzantine agreement with a
   general adversary; reduces to n > 3t in the threshold case. *)
let satisfies_q3 t : bool =
  match t.kind with
  | Threshold_kind k -> t.n > 3 * k
  | Hybrid_kind (b, c) -> t.n > (3 * b) + (2 * c)
  | Complement_kind | Explicit_kind _ ->
    let maxes = maximal_adversary_sets t in
    let full = Pset.full t.n in
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            List.for_all
              (fun c -> not (Pset.equal (Pset.union a (Pset.union b c)) full))
              maxes)
          maxes)
      maxes

(* Q^2: no two corruptible sets cover P. *)
let satisfies_q2 t : bool =
  match t.kind with
  | Threshold_kind k -> t.n > 2 * k
  | Hybrid_kind (b, c) -> t.n > (2 * b) + c
  | Complement_kind | Explicit_kind _ ->
    let maxes = maximal_adversary_sets t in
    let full = Pset.full t.n in
    List.for_all
      (fun a ->
        List.for_all (fun b -> not (Pset.equal (Pset.union a b) full)) maxes)
      maxes

(* Soundness of the sharing formula w.r.t. the trust assumption:
   corruptible coalitions must not reconstruct, and the honest remainder
   of any corruption pattern must be able to.  Exhaustive over A^*
   (monotonicity covers the rest). *)
let check_sharing_compatible t : bool =
  List.for_all
    (fun a ->
      (not (Monotone_formula.eval t.access a))
      && Monotone_formula.eval t.access (Pset.complement t.n a))
    (maximal_adversary_sets t)

(* Largest f such that every f-subset is corruptible: the best uniform
   (pure-threshold) tolerance implied by the structure. *)
let max_uniform_tolerance t : int =
  let rec go f =
    if f >= t.n then t.n - 1
    else begin
      let ok = ref true in
      Pset.iter_subsets t.n (fun s ->
          if Pset.card s = f + 1 && is_qualified t s then ok := false);
      if !ok then go (f + 1) else f
    end
  in
  go 0
