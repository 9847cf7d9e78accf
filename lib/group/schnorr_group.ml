(* Schnorr group: the subgroup of prime order [q] of Z_p^*, for a safe
   prime p = 2q + 1.

   This is the discrete-log setting used by the threshold coin of Cachin,
   Kursawe and Shoup and by the Shoup-Gennaro TDH2 threshold cryptosystem.
   The group of quadratic residues mod p has prime order q, so hashing
   into it is simply squaring, and every non-unit element is a
   generator.

   Exponentiation fast paths: [params] carries a small cache of
   fixed-base comb tables ([Bignum.Fixed_base]), so an exponentiation
   by a prepared base costs about numbits(q)/8 squarings and as many
   Montgomery products, against ~1.25 numbits(q) products for an
   unprepared one.  Unprepared bases go through [Bignum.pow_mod]
   (Montgomery-windowed for the odd prime p), and the double/multi-
   exponentiations fall back to the shared-squaring-chain kernels in
   [Bignum]. *)

module B = Bignum

type table = B.Fixed_base.table
(* Sized for numbits q: exponents are always reduced mod q first. *)

type cache = { mutable tables : (B.t * table) list }
(* Move-to-front association list keyed by the base element.  Protocols
   exponentiate a handful of bases (g, the coin/TDH2 hash bases, leaf
   public keys), so a short list beats a hash table here. *)

type params = { p : B.t; q : B.t; g : B.t; cache : cache }

type elt = B.t
(* Invariant: an [elt] is a quadratic residue mod p, i.e. x^q = 1. *)

let params_equal a b = B.equal a.p b.p && B.equal a.q b.q && B.equal a.g b.g

let unsafe_params ~p ~q ~g : params = { p; q; g; cache = { tables = [] } }

let generate ?(bits = 128) rng : params =
  let p, q = Primes.random_safe_prime rng ~bits in
  (* 4 = 2^2 is a quadratic residue and not 1, hence a generator of the
     order-q subgroup. *)
  let g = B.erem (B.of_int 4) p in
  unsafe_params ~p ~q ~g

(* Shared test/bench parameter sets, memoized per bit size so that suites
   do not regenerate safe primes repeatedly.  Memoization also shares the
   fixed-base table cache across every user of the same size. *)
let default_cache : (int, params) Hashtbl.t = Hashtbl.create 4

let default ?(bits = 128) () : params =
  match Hashtbl.find_opt default_cache bits with
  | Some ps -> ps
  | None ->
    let ps = generate ~bits (Prng.create ~seed:(0x5EC5E7 + bits)) in
    Hashtbl.add default_cache bits ps;
    ps

let one (_ : params) : elt = B.one
let generator ps : elt = ps.g
let elt_equal (a : elt) (b : elt) = B.equal a b

let is_element ps (x : B.t) : bool =
  B.sign x > 0 && B.lt x ps.p
  && B.equal (B.pow_mod ~base:x ~exp:ps.q ~modulus:ps.p) B.one

let mul ps (a : elt) (b : elt) : elt = B.mul_mod a b ps.p

(* ------------------------------------------------------------------ *)
(* Fixed-base comb tables                                              *)
(* ------------------------------------------------------------------ *)

(* Enough slots for a deployment's long-lived bases: the generator, the
   TDH2 g', every party's Schnorr public key, and the leaf verification
   keys of a sharing (batch verification exponentiates those directly),
   with headroom for the churning per-round coin bases.  A table is a
   pure function of its public base, so one cache serves every replica
   of a simulated deployment. *)
let max_tables = 48

let find_table (c : cache) (base : elt) : table option =
  let rec go acc = function
    | [] -> None
    | ((b, t) as hd) :: tl ->
      if B.equal b base then begin
        c.tables <- hd :: List.rev_append acc tl;
        Some t
      end
      else go (hd :: acc) tl
  in
  go [] c.tables

let prepare_base ps (base : elt) : unit =
  match find_table ps.cache base with
  | Some _ -> ()
  | None ->
    let t = B.Fixed_base.build ~base ~modulus:ps.p ~bits:(B.numbits ps.q) in
    let ts = (base, t) :: ps.cache.tables in
    ps.cache.tables <- List.filteri (fun i _ -> i < max_tables) ts

(* ------------------------------------------------------------------ *)
(* Exponentiation entry points                                         *)
(* ------------------------------------------------------------------ *)

let exp ps (a : elt) (e : B.t) : elt =
  let e = B.erem e ps.q in
  match find_table ps.cache a with
  | Some tbl -> B.Fixed_base.exp tbl e
  | None -> B.pow_mod ~base:a ~exp:e ~modulus:ps.p

(* The group generator is exponentiated on every share, proof and
   signature, so its table is built eagerly on first use. *)
let exp_g ps (e : B.t) : elt =
  prepare_base ps ps.g;
  exp ps ps.g e

let exp2 ps (a : elt) (x : B.t) (b : elt) (y : B.t) : elt =
  let x = B.erem x ps.q and y = B.erem y ps.q in
  match (find_table ps.cache a, find_table ps.cache b) with
  | Some ta, Some tb -> B.Fixed_base.exp2 ta x tb y
  | Some ta, None ->
    mul ps (B.Fixed_base.exp ta x) (B.pow_mod ~base:b ~exp:y ~modulus:ps.p)
  | None, Some tb ->
    mul ps (B.pow_mod ~base:a ~exp:x ~modulus:ps.p) (B.Fixed_base.exp tb y)
  | None, None -> B.pow2_mod ~b1:a ~e1:x ~b2:b ~e2:y ~modulus:ps.p

let multi_exp ps (pairs : (elt * B.t) list) : elt =
  let pairs = List.map (fun (b, e) -> (b, B.erem e ps.q)) pairs in
  (* Prepared bases go through their tables; the rest share one
     interleaved squaring chain. *)
  let tabled, rest =
    List.fold_left
      (fun (t, r) (b, e) ->
        match find_table ps.cache b with
        | Some tbl -> ((tbl, e) :: t, r)
        | None -> (t, (b, e) :: r))
      ([], []) pairs
  in
  let rec tabled_product = function
    | [] -> B.one
    | [ (ta, x) ] -> B.Fixed_base.exp ta x
    | (ta, x) :: (tb, y) :: rest ->
      mul ps (B.Fixed_base.exp2 ta x tb y) (tabled_product rest)
  in
  let acc = tabled_product tabled in
  match rest with
  | [] -> B.erem acc ps.p
  | [ (b, e) ] -> mul ps acc (B.pow_mod ~base:b ~exp:e ~modulus:ps.p)
  | _ -> mul ps acc (B.pow_multi_mod rest ~modulus:ps.p)

(* h^(q - c) = h^-c for every subgroup element h, since h^q = 1. *)
let neg_exponent ps (c : B.t) : B.t = B.erem (B.neg c) ps.q

let inv ps (a : elt) : elt =
  match B.inv_mod a ps.p with
  | Some i -> i
  | None -> invalid_arg "Schnorr_group.inv: not invertible"

let elt_len ps = (B.numbits ps.p + 7) / 8

let elt_to_bytes ps (a : elt) : string = B.to_bytes_be ~len:(elt_len ps) a

(* Only the exact fixed-width form decodes: a shorter or zero-padded
   string naming the same element would be a second encoding of it. *)
let elt_of_bytes ps (s : string) : elt option =
  if String.length s <> elt_len ps then None
  else
    let x = B.of_bytes_be s in
    if is_element ps x then Some x else None

(* Hash arbitrary strings into the group: reduce mod p, then square.
   Squaring maps onto the quadratic residues, i.e. into the subgroup. *)
let hash_to_elt ps ~domain (parts : string list) : elt =
  Obs_crypto.hash_to_group ();
  let x = Ro.hash_to_bignum_below ~domain parts ps.p in
  let x = if B.is_zero x then B.one else x in
  B.mul_mod x x ps.p

(* Random exponent in Z_q. *)
let random_exponent ps rng : B.t = Prng.bignum_below rng ps.q

(* Hash group elements and strings to a challenge in Z_q (Fiat-Shamir). *)
let hash_to_exponent ps ~domain (parts : string list) : B.t =
  Ro.hash_to_bignum_below ~domain parts ps.q
