(* Schnorr group: the subgroup of prime order [q] of Z_p^*, for a safe
   prime p = 2q + 1.

   This is the discrete-log setting used by the threshold coin of Cachin,
   Kursawe and Shoup and by the Shoup-Gennaro TDH2 threshold cryptosystem.
   The group of quadratic residues mod p has prime order q, so hashing
   into it is simply squaring, every non-unit element is a generator,
   and membership is a Jacobi symbol.

   An [elt] is a fully reduced [Bignum.t] behind an abstract type: the
   constructors below only ever produce subgroup members, and
   [elt_of_bytes] is the one place a foreign value is tested, so the
   rest of the code base never checks membership again.

   Exponentiation reaches two kernels.  [params] carries a small cache
   of fixed-base comb tables ([Bignum.Fixed_base]), so an
   exponentiation by a prepared base costs about numbits(q)/8 squarings
   and as many Montgomery products, against ~1.25 numbits(q) products
   for an unprepared one; [multi_exp] sends all its prepared bases
   through one comb pass.  Unprepared bases go through the one
   variable-base kernel: [Bignum.pow_mod] for a single one,
   [Bignum.pow_multi_mod] (one Straus squaring chain) for several. *)

module B = Bignum

type table = B.Fixed_base.table
(* Sized for numbits q: exponents are always reduced mod q first. *)

type cache = { mutable tables : (B.t * table) list }
(* Move-to-front association list keyed by the base element.  Protocols
   exponentiate a handful of bases (g, the coin/TDH2 hash bases, leaf
   public keys), so a short list beats a hash table here. *)

type elt = B.t
(* Invariant: an [elt] is a quadratic residue mod p, i.e. x^q = 1, and
   fully reduced, so equality is [B.equal]. *)

type params = { p : B.t; q : B.t; g : elt; cache : cache }

let params_equal a b = B.equal a.p b.p && B.equal a.q b.q && B.equal a.g b.g

let unsafe_params ~p ~q ~g : params = { p; q; g; cache = { tables = [] } }

(* Shared test/bench parameter sets, memoized per bit size so that suites
   do not regenerate safe primes repeatedly.  Memoization also shares the
   fixed-base table cache across every user of the same size. *)
let default_cache : (int, params) Hashtbl.t = Hashtbl.create 4

let default ?(bits = 128) () : params =
  match Hashtbl.find_opt default_cache bits with
  | Some ps -> ps
  | None ->
    let rng = Prng.create ~seed:(0x5EC5E7 + bits) in
    let p, q = Primes.random_safe_prime rng ~bits in
    (* 4 = 2^2 is a quadratic residue and not 1, hence a generator of
       the order-q subgroup. *)
    let ps = unsafe_params ~p ~q ~g:(B.erem (B.of_int 4) p) in
    Hashtbl.add default_cache bits ps;
    ps

let one (_ : params) : elt = B.one
let generator ps : elt = ps.g
let elt_equal (a : elt) (b : elt) = B.equal a b

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
  | Some tbl -> B.Fixed_base.exp [ (tbl, e) ]
  | None -> B.pow_mod ~base:a ~exp:e ~modulus:ps.p

(* The group generator is exponentiated on every share, proof and
   signature, so its table is built eagerly on first use. *)
let exp_g ps (e : B.t) : elt =
  prepare_base ps ps.g;
  exp ps ps.g e

(* Prepared bases share one comb pass; a lone unprepared base takes
   [pow_mod], several share one Straus chain. *)
let multi_exp ps (pairs : (elt * B.t) list) : elt =
  let tabled, rest =
    List.partition_map
      (fun (b, e) ->
        let e = B.erem e ps.q in
        match find_table ps.cache b with
        | Some tbl -> Left (tbl, e)
        | None -> Right (b, e))
      pairs
  in
  let acc = B.Fixed_base.exp tabled in
  match rest with
  | [] -> acc
  | [ (b, e) ] -> mul ps acc (B.pow_mod ~base:b ~exp:e ~modulus:ps.p)
  | _ -> mul ps acc (B.pow_multi_mod rest ~modulus:ps.p)

(* h^(q - c) = h^-c for every subgroup element h, since h^q = 1; the
   exponent reduction in [multi_exp] turns -c into q - c. *)
let recommit ps ~g ~z ~h ~c : elt = multi_exp ps [ (h, B.neg c); (g, z) ]

let elt_len ps = (B.numbits ps.p + 7) / 8

let elt_to_bytes ps (a : elt) : string = B.to_bytes_be ~len:(elt_len ps) a

(* Only the exact fixed-width form decodes: a shorter or zero-padded
   string naming the same element would be a second encoding of it.  In
   a safe-prime group the order-q subgroup is exactly the quadratic
   residues, so for 0 < x < p the Jacobi symbol (x/p) = 1 iff x^q = 1,
   at a GCD-like cost instead of an exponentiation. *)
let elt_of_bytes ps (s : string) : elt option =
  if String.length s <> elt_len ps then None
  else
    let x = B.of_bytes_be s in
    if B.sign x > 0 && B.lt x ps.p && B.jacobi x ps.p = 1 then Some x
    else None

(* Hash arbitrary strings into the group: reduce mod p, then square.
   Squaring maps onto the quadratic residues, i.e. into the subgroup. *)
let hash_to_elt ps ~domain (parts : string list) : elt =
  Obs_crypto.hash_to_group ();
  let x = Ro.hash_to_bignum_below ~domain parts ps.p in
  let x = if B.is_zero x then B.one else x in
  B.mul_mod x x ps.p

(* ------------------------------------------------------------------ *)
(* Exponents                                                           *)
(* ------------------------------------------------------------------ *)

let order ps = ps.q

(* Random exponent in Z_q. *)
let random_exponent ps rng : B.t = Prng.bignum_below rng ps.q

(* Hash group elements and strings into Z_q: Fiat-Shamir challenges and
   deterministic nonces. *)
let hash_to_exponent ps ~domain (parts : string list) : B.t =
  Ro.hash_to_bignum_below ~domain parts ps.q

let response ps ~r ~c ~x : B.t = B.add_mod r (B.mul_mod c x ps.q) ps.q
let is_exponent ps (z : B.t) = B.sign z >= 0 && B.lt z ps.q
let exponent_len ps = (B.numbits ps.q + 7) / 8

let exponent_to_bytes ps (v : B.t) : string =
  B.to_bytes_be ~len:(exponent_len ps) v

let exponent_of_bytes ps (s : string) : B.t option =
  if String.length s <> exponent_len ps then None
  else
    let v = B.of_bytes_be s in
    if B.lt v ps.q then Some v else None
