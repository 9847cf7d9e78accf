(* Practical threshold RSA signatures (Shoup, EUROCRYPT 2000).

   The signature scheme of the paper's trusted services: clients verify a
   single RSA public key (N, e) while the private exponent d is Shamir-
   shared among the servers by the trusted dealer.  Shares are
   non-interactive and any k valid shares combine into a standard RSA
   signature; a share carries its validity proof only where the receiver
   checks shares one by one.  The reconstruction threshold k is a
   parameter; the service key uses k = t + 1.

   Key facts used below (Delta = n!):
     share of party j (1-indexed):  s_j = f(j) mod m,  f(0) = d,
                                    m = p'q' for safe primes p = 2p'+1 etc.
     signature share:   x_j = H(M)^{2 Delta s_j} mod N
     combination:       w = prod x_j^{2 lambda_j} = H(M)^{4 Delta^2 d},
                        with integer Lagrange lambda_j = Delta * l_j(0)
     final signature:   y = w^a H(M)^b where 4 Delta^2 a + e b = 1,
                        so y^e = H(M). *)

module B = Bignum

type public_key = { n_modulus : B.t; e : B.t; n_parties : int; k : int }

type keys = {
  pk : public_key;
  shares : B.t array;  (* party i (0-indexed) holds shares.(i) = f(i+1) *)
  v : B.t;  (* verification base, a generator of QR_N *)
  vks : B.t array;  (* vks.(i) = v^{shares.(i)} mod N *)
}

type proof = { c : B.t; z : B.t }
type share = { signer : int; x : B.t; proof : proof option }
type signature = B.t

let domain = "sintra/tsig"
let fdh_domain = domain ^ "/fdh"
let chal_domain = domain ^ "/chal"
let nonce_domain = domain ^ "/nonce"

(* delta = n! — memoized: the same server-set size recurs for every
   share and combine of a key's lifetime. *)
let delta_cache : (int * B.t) list ref = ref []

let delta n =
  match List.assoc_opt n !delta_cache with
  | Some d -> d
  | None ->
    let rec go acc i = if i > n then acc else go (B.mul_int acc i) (i + 1) in
    let d = go B.one 2 in
    delta_cache := (n, d) :: !delta_cache;
    d

(* Move-to-front lookup and insertion for the small bounded caches
   below: a stable deployment hits the head of the list every time. *)
let mtf_find (cache : ('k * 'v) list ref) (same : 'k -> bool) : 'v option =
  let rec go acc = function
    | [] -> None
    | ((k, v) as hd) :: tl ->
      if same k then begin
        cache := hd :: List.rev_append acc tl;
        Some v
      end
      else go (hd :: acc) tl
  in
  go [] !cache

let mtf_add (cache : ('k * 'v) list ref) ~capacity (k : 'k) (v : 'v) : unit =
  cache := List.filteri (fun i _ -> i < capacity) ((k, v) :: !cache)

(* base^exp as (base^-1)^-exp when exp < 0. *)
let unsign ~base ~exp ~modulus =
  if B.sign exp >= 0 then (base, exp)
  else
    match B.inv_mod base modulus with
    | Some inv -> (inv, B.neg exp)
    | None -> invalid_arg "Rsa_threshold: not invertible"

let pow_signed ~base ~exp ~modulus =
  let base, exp = unsign ~base ~exp ~modulus in
  B.pow_mod ~base ~exp ~modulus

(* b1^e1 * b2^e2 mod N with a possibly-negative e2 (e1 is always a
   non-negative proof response here), in one shared squaring chain. *)
let pow2_signed ~b1 ~e1 ~b2 ~e2 ~modulus =
  let b2, e2 = unsign ~base:b2 ~exp:e2 ~modulus in
  B.pow_multi_mod [ (b1, e1); (b2, e2) ] ~modulus

let deal ?(bits = 256) ~n ~k (rng : Prng.t) : keys =
  if k < 1 || k > n then invalid_arg "Rsa_threshold.deal: bad k";
  if n >= 65537 then invalid_arg "Rsa_threshold.deal: n too large for e";
  let rec pick_moduli () =
    let p, p' = Primes.random_safe_prime rng ~bits:(bits / 2) in
    let q, q' = Primes.random_safe_prime rng ~bits:(bits / 2) in
    if B.equal p q then pick_moduli () else (p, p', q, q')
  in
  let p, p', q, q' = pick_moduli () in
  let n_modulus = B.mul p q in
  let m = B.mul p' q' in
  let e = B.of_int 65537 in
  let d =
    match B.inv_mod e m with
    | Some d -> d
    | None -> invalid_arg "Rsa_threshold.deal: e divides m (retry seed)"
  in
  let poly = Poly.random rng ~modulus:m ~degree:(k - 1) ~secret:d in
  let shares = Array.init n (fun i -> Poly.eval_at_int poly (i + 1)) in
  (* v must generate QR_N: a random square does with overwhelming
     probability (QR_N is cyclic of order p'q'). *)
  let r = Prng.bignum_below rng n_modulus in
  let v = B.mul_mod r r n_modulus in
  let vks =
    Array.map (fun s -> B.pow_mod ~base:v ~exp:s ~modulus:n_modulus) shares
  in
  { pk = { n_modulus; e; n_parties = n; k }; shares; v; vks }

(* Full-domain-ish hash into Z_N^*. *)
let hash_to_zn (pk : public_key) (msg : string) : B.t =
  let rec go ctr =
    let h =
      Ro.hash_to_bignum_below ~domain:fdh_domain
        [ msg; string_of_int ctr ] pk.n_modulus
    in
    if B.sign h > 0 && B.equal (B.gcd h pk.n_modulus) B.one then h else go (ctr + 1)
  in
  go 0

let proof_challenge (pk : public_key) ~v ~xt ~vi ~xi2 ~v' ~x' : B.t =
  let h =
    Ro.hash_expand ~domain:chal_domain
      (List.map B.to_bytes_be [ v; xt; vi; xi2; v'; x'; pk.n_modulus ])
      ~len:16
  in
  B.of_bytes_be h

(* Width of the proof nonce r: |N| + 2 bits cover the secret exponent
   range, 256 more make r statistically hide s_i * c. *)
let nonce_bits (nn : B.t) = B.numbits nn + 2 + 256

(* Every share exponentiates the proof base v by a fresh nonce, so v
   gets a fixed-base table.  A table is a pure function of the public
   (N, v): it is built on a key's first share, never at deal time, and
   kept in a small process-wide cache shared by every replica. *)
let v_table_capacity = 8
let v_tables : ((B.t * B.t) * B.Fixed_base.table) list ref = ref []

let v_table (keys : keys) : B.Fixed_base.table =
  let nn = keys.pk.n_modulus in
  let same (n, v) = B.equal n nn && B.equal v keys.v in
  match mtf_find v_tables same with
  | Some tbl -> tbl
  | None ->
    let tbl = B.Fixed_base.build ~base:keys.v ~modulus:nn ~bits:(nonce_bits nn) in
    mtf_add v_tables ~capacity:v_table_capacity (nn, keys.v) tbl;
    tbl

(* x_i = H(M)^{2 Delta s_i}, the share itself; [xhat] = H(M). *)
let bare (keys : keys) ~(party : int) ~(xhat : B.t) : share =
  Obs_crypto.sign ();
  let pk = keys.pk in
  let e = B.mul (B.shift_left (delta pk.n_parties) 1) keys.shares.(party) in
  { signer = party; x = B.pow_mod ~base:xhat ~exp:e ~modulus:pk.n_modulus;
    proof = None }

let bare_share (keys : keys) ~(party : int) (msg : string) : share =
  bare keys ~party ~xhat:(hash_to_zn keys.pk msg)

let sign_share (keys : keys) ~(party : int) (msg : string) : share =
  let pk = keys.pk in
  let nn = pk.n_modulus in
  let xhat = hash_to_zn pk msg in
  let sh = bare keys ~party ~xhat in
  Obs_crypto.share_proof ();
  let s_i = keys.shares.(party) in
  (* Shoup's share-correctness proof: log_v vks = log_{x~} x^2 where
     x~ = xhat^{4 Delta}.  Deterministic nonce, as in the DLEQ proofs. *)
  let xt =
    B.pow_mod ~base:xhat ~exp:(B.shift_left (delta pk.n_parties) 2) ~modulus:nn
  in
  let nonce_bound = B.shift_left B.one (nonce_bits nn) in
  let r =
    Ro.hash_to_bignum_below ~domain:nonce_domain
      [ B.to_bytes_be s_i; msg ] nonce_bound
  in
  let v' = B.Fixed_base.exp [ (v_table keys, r) ] in
  let x' = B.pow_mod ~base:xt ~exp:r ~modulus:nn in
  let xi2 = B.mul_mod sh.x sh.x nn in
  let c = proof_challenge pk ~v:keys.v ~xt ~vi:keys.vks.(party) ~xi2 ~v' ~x' in
  { sh with proof = Some { c; z = B.add (B.mul s_i c) r } }

let verify_share (keys : keys) (msg : string) (sh : share) : bool =
  Obs_crypto.share_verify ();
  let pk = keys.pk in
  let nn = pk.n_modulus in
  match sh.proof with
  | None -> false
  | Some { c; z } ->
    sh.signer >= 0 && sh.signer < pk.n_parties
    && B.sign sh.x > 0 && B.lt sh.x nn
    && B.equal (B.gcd sh.x nn) B.one
    &&
    let dd = delta pk.n_parties in
    let xhat = hash_to_zn pk msg in
    let xt = B.pow_mod ~base:xhat ~exp:(B.shift_left dd 2) ~modulus:nn in
    let xi2 = B.mul_mod sh.x sh.x nn in
    let vi = keys.vks.(sh.signer) in
    let v' = pow2_signed ~b1:keys.v ~e1:z ~b2:vi ~e2:(B.neg c) ~modulus:nn in
    let x' = pow2_signed ~b1:xt ~e1:z ~b2:xi2 ~e2:(B.neg c) ~modulus:nn in
    B.equal c (proof_challenge pk ~v:keys.v ~xt ~vi ~xi2 ~v' ~x')

(* Integer Lagrange coefficients lambda_j = Delta * prod_{j' != j} j'/(j'-j),
   over the 1-indexed point set [points]; Delta clears all denominators. *)
let integer_lagrange_uncached ~n_parties (points : int list) :
    (int * B.t) list =
  let dd = delta n_parties in
  List.map
    (fun j ->
      let num, den =
        List.fold_left
          (fun (num, den) j' ->
            if j' = j then (num, den)
            else (B.mul_int num j', B.mul_int den (j' - j)))
          (dd, B.one) points
      in
      let q, r = B.divmod num den in
      assert (B.is_zero r);
      (j, q))
    points

(* Memoized per (n_parties, points) in a small move-to-front LRU: a
   stable server set signs every message with the same k fastest
   responders, so the coefficient vector recurs run-long.  Keyed by the
   sorted point list (not a Pset) because RSA keys may span more parties
   than a bit-mask set holds. *)
let lagrange_cache_capacity = 64
let lagrange_cache : ((int * int list) * (int * B.t) list) list ref = ref []

let integer_lagrange ~n_parties (points : int list) : (int * B.t) list =
  let key = (n_parties, points) in
  match mtf_find lagrange_cache (fun k -> k = key) with
  | Some v ->
    Obs_crypto.recomb_cache_hit ();
    v
  | None ->
    Obs_crypto.recomb_cache_miss ();
    let v = integer_lagrange_uncached ~n_parties points in
    mtf_add lagrange_cache ~capacity:lagrange_cache_capacity key v;
    v

(* Combine exactly [k] shares into the candidate signature. *)
let combine_raw (keys : keys) ~(xhat : B.t) (shares : share list) :
    signature =
  let pk = keys.pk in
  let nn = pk.n_modulus in
  let points = List.map (fun s -> s.signer + 1) shares in
  let lambdas = integer_lagrange ~n_parties:pk.n_parties points in
  let w =
    List.fold_left
      (fun acc s ->
        let lambda = List.assoc (s.signer + 1) lambdas in
        B.mul_mod acc
          (pow_signed ~base:s.x ~exp:(B.shift_left lambda 1) ~modulus:nn)
          nn)
      B.one shares
  in
  (* w^e = H(M)^{4 Delta^2}; Bezout lifts it to an e-th root of H(M). *)
  let dd = delta pk.n_parties in
  let four_d2 = B.shift_left (B.mul dd dd) 2 in
  let g, a, b = B.egcd four_d2 pk.e in
  assert (B.equal g B.one);
  B.mul_mod
    (pow_signed ~base:w ~exp:a ~modulus:nn)
    (pow_signed ~base:xhat ~exp:b ~modulus:nn)
    nn

(* The public signature equation, reused as the combine-time acceptance
   check: one short-exponent pow_mod (e = 65537), far cheaper than the
   per-share proof checks it replaces. *)
let signature_ok (pk : public_key) ~(xhat : B.t) (y : signature) : bool =
  B.sign y > 0 && B.lt y pk.n_modulus
  && B.equal (B.pow_mod ~base:y ~exp:pk.e ~modulus:pk.n_modulus) xhat

let combines_tried = ref 0
let combine_attempts () = !combines_tried

(* Combine the first k signers given and accept iff y^e = H(M): RSA,
   unlike the coin, has a public predicate on the combined value, so no
   share proof is ever checked.  On failure, take the first k-subset in
   signer order whose combination verifies.  A share below its top
   signer is bad: swapped in for the top, it forms a subset already
   rejected.  A share above the top is bad iff that swap fails.  No
   subset is combined twice: at most C(m, k) combinations. *)
let combine_attributed (keys : keys) (msg : string) (shares : share list) :
    signature option * int list =
  Obs_crypto.combine ();
  let pk = keys.pk in
  let given =
    List.rev
      (List.fold_left
         (fun acc s ->
           if List.exists (fun a -> a.signer = s.signer) acc then acc
           else s :: acc)
         [] shares)
  in
  let m = List.length given in
  if m < pk.k then (None, [])
  else begin
    let xhat = hash_to_zn pk msg in
    let by_signer = List.sort (fun a b -> compare a.signer b.signer) in
    let signers = List.map (fun s -> s.signer) in
    let sorted = by_signer given in
    let first = by_signer (List.filteri (fun i _ -> i < pk.k) given) in
    let combine subset =
      incr combines_tried;
      let y = combine_raw keys ~xhat subset in
      if signature_ok pk ~xhat y then Some y else None
    in
    let attempt subset =
      if signers subset = signers first then None else combine subset
    in
    match combine first with
    | Some _ as y ->
      Obs_crypto.lazy_verify_hit ();
      (y, [])
    | None -> (
      Obs_crypto.batch_verify_fallback ();
      (* k-subsets of [rest] (length [len]) after the prefix [acc]. *)
      let rec search need acc rest len =
        match rest with
        | _ when need = 0 ->
          let subset = List.rev acc in
          Option.map (fun y -> (subset, y)) (attempt subset)
        | s :: tl when len >= need -> (
          match search (need - 1) (s :: acc) tl (len - 1) with
          | None -> search need acc tl (len - 1)
          | found -> found)
        | _ -> None
      in
      match search pk.k [] sorted m with
      | None -> (None, [])
      | Some (subset, y) ->
        let top = List.nth subset (pk.k - 1) in
        let bad s =
          (not (List.memq s subset))
          && (s.signer < top.signer
             || attempt (List.filter (fun s' -> s' != top) subset @ [ s ]) = None)
        in
        (Some y, signers (List.filter bad sorted)))
  end

let combine keys msg shares = fst (combine_attributed keys msg shares)

let verify (pk : public_key) (msg : string) (y : signature) : bool =
  Obs_crypto.verify ();
  B.sign y > 0 && B.lt y pk.n_modulus
  && B.equal
       (B.pow_mod ~base:y ~exp:pk.e ~modulus:pk.n_modulus)
       (hash_to_zn pk msg)
