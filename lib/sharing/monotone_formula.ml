(* Monotone boolean formulas over party indices, built from threshold
   gates (paper, Section 4.2).

   A formula describes an access structure: [eval f s] tells whether the
   party set [s] is qualified.  AND and OR are the threshold gates
   Theta_n^n and Theta_1^n.  The same formulas drive the Benaloh-Leichter
   linear secret sharing scheme in {!Lsss}. *)

type t =
  | Leaf of int  (** party index *)
  | Threshold of int * t list  (** at least [k] of the children *)

let leaf i =
  if i < 0 then invalid_arg "Monotone_formula.leaf: negative index";
  Leaf i

let threshold k children =
  let m = List.length children in
  if k < 1 || k > m then invalid_arg "Monotone_formula.threshold: bad k";
  Threshold (k, children)

let and_ children = threshold (List.length children) children
let or_ children = threshold 1 children

(* k-out-of-n over parties 0..n-1. *)
let simple_threshold ~n ~k = threshold k (List.init n leaf)

(* Weighted threshold: party i counts with weight w_i; qualified when the
   total weight reaches [k].  Encoded by replicating leaves, exactly the
   "several logical parties per physical party" trick of the paper. *)
let weighted_threshold ~weights ~k =
  let leaves =
    List.concat (List.mapi (fun i w -> List.init w (fun _ -> leaf i)) weights)
  in
  threshold k leaves

let rec eval (f : t) (s : Pset.t) : bool =
  match f with
  | Leaf i -> Pset.mem i s
  | Threshold (k, children) ->
    let sat = List.fold_left (fun acc c -> if eval c s then acc + 1 else acc) 0 children in
    sat >= k

let rec parties (f : t) : Pset.t =
  match f with
  | Leaf i -> Pset.singleton i
  | Threshold (_, children) ->
    List.fold_left (fun acc c -> Pset.union acc (parties c)) Pset.empty children

let rec size (f : t) : int =
  match f with
  | Leaf _ -> 1
  | Threshold (_, children) ->
    List.fold_left (fun acc c -> acc + size c) 1 children

let rec leaves (f : t) : int list =
  match f with
  | Leaf i -> [ i ]
  | Threshold (_, children) -> List.concat_map leaves children
