(* Sets of parties, represented as bit masks in a native int.

   Parties are indexed 0 .. n-1 with n <= 62.  The architecture targets
   small static server sets (the paper's examples use 9 and 16 servers),
   so a machine word is both sufficient and fast enough to enumerate
   adversary structures exhaustively. *)

type t = int

let max_parties = 62
let empty : t = 0

let full n : t =
  if n < 0 || n > max_parties then invalid_arg "Pset.full";
  (1 lsl n) - 1

let mem i (s : t) = (s lsr i) land 1 = 1
let add i (s : t) = s lor (1 lsl i)
let remove i (s : t) = s land lnot (1 lsl i)
let singleton i : t = 1 lsl i
let union (a : t) (b : t) : t = a lor b
let inter (a : t) (b : t) : t = a land b
let diff (a : t) (b : t) : t = a land lnot b
let subset (a : t) (b : t) = a land lnot b = 0
let disjoint (a : t) (b : t) = a land b = 0
let equal (a : t) (b : t) = a = b
let complement n (s : t) : t = full n land lnot s

let card (s : t) =
  let rec go s acc = if s = 0 then acc else go (s lsr 1) (acc + (s land 1)) in
  go s 0

let of_list l = List.fold_left (fun s i -> add i s) empty l

let to_list (s : t) =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if mem i s then i :: acc else acc)
  in
  go (max_parties - 1) []

let iter f (s : t) = List.iter f (to_list s)
let fold f (s : t) init = List.fold_left (fun acc i -> f i acc) init (to_list s)
let for_all f (s : t) = List.for_all f (to_list s)
let exists f (s : t) = List.exists f (to_list s)

(* Iterate over all 2^n subsets of {0..n-1}. *)
let iter_subsets n f =
  if n > 24 then invalid_arg "Pset.iter_subsets: n too large to enumerate";
  for s = 0 to (1 lsl n) - 1 do
    f s
  done

let pp fmt (s : t) =
  Format.fprintf fmt "{%s}"
    (String.concat "," (List.map string_of_int (to_list s)))

let to_string (s : t) = Format.asprintf "%a" pp s
