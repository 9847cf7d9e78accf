(* Chaum-Pedersen proof of discrete-log equality, made non-interactive
   with the Fiat-Shamir transform.

   Proves log_{g1} h1 = log_{g2} h2 in a Schnorr group.  This is the
   share-validity proof of both the threshold coin (Cachin-Kursawe-Shoup)
   and the TDH2 threshold cryptosystem (Shoup-Gennaro): it is what makes
   the schemes robust, i.e. lets anyone discard bogus shares submitted by
   corrupted servers.  Sound in the random-oracle model.

   A proof carries the commitment pair (a1, a2) alongside the classic
   (c, z).  The pair is redundant — [verify] recomputes it from (c, z)
   exactly as before — but it is what makes *batch* verification
   possible: with commitments in hand, checking k proofs splits into k
   cheap hash re-checks (binding each c_i to its a_i) plus 2k group
   equations  g1^{z_i} = a1_i h1_i^{c_i}  and  g2^{z_i} = a2_i
   h2_i^{c_i}, and the group equations fold into ONE multi-
   exponentiation under a random linear combination.  [to_bytes] still
   serializes only (c, z), so nothing downstream observes the field. *)

module B = Bignum
module G = Schnorr_group

type t = { c : B.t; z : B.t; a1 : G.elt; a2 : G.elt }

type statement = { g1 : G.elt; h1 : G.elt; g2 : G.elt; h2 : G.elt }

let transcript ps ~domain g1 h1 g2 h2 a1 a2 =
  G.hash_to_exponent ps ~domain
    (List.map (G.elt_to_bytes ps) [ g1; h1; g2; h2; a1; a2 ])

(* The commitment nonce is derived deterministically from the witness and
   the statement (as in RFC 6979); in the random-oracle model this is as
   good as fresh randomness and keeps proving stateless. *)
let prove ps ~domain ~x ~g1 ~h1 ~g2 ~h2 : t =
  let r =
    G.hash_to_exponent ps ~domain:(domain ^ "/nonce")
      (B.to_bytes_be x :: List.map (G.elt_to_bytes ps) [ g1; h1; g2; h2 ])
  in
  let a1 = G.exp ps g1 r and a2 = G.exp ps g2 r in
  let c = transcript ps ~domain g1 h1 g2 h2 a1 a2 in
  { c; z = G.response ps ~r ~c ~x; a1; a2 }

(* a_i = g_i^z * h_i^{-c} must re-produce the challenge.  Every h_i is
   a subgroup member by its type, so nothing is re-checked. *)
let verify ps ~domain ~g1 ~h1 ~g2 ~h2 (proof : t) : bool =
  G.is_exponent ps proof.z
  &&
  let a1 = G.recommit ps ~g:g1 ~z:proof.z ~h:h1 ~c:proof.c in
  let a2 = G.recommit ps ~g:g2 ~z:proof.z ~h:h2 ~c:proof.c in
  B.equal proof.c (transcript ps ~domain g1 h1 g2 h2 a1 a2)

let to_bytes ps (p : t) : string =
  G.exponent_to_bytes ps p.c ^ G.exponent_to_bytes ps p.z

(* ------------------------------------------------------------------ *)
(* Batch verification                                                  *)
(* ------------------------------------------------------------------ *)

(* RLC coefficient width.  A batch with one invalid proof survives the
   folded check with probability 2^-63 over the oracle-derived
   coefficients; short coefficients also keep their terms cheap inside
   the shared squaring chain.  Coefficients are made EVEN (a random
   63-bit value doubled): an even exponent annihilates any order-2
   component of Z_p^* = QR x {+-1}, so the folded check's soundness does
   not rest on the element type alone, at one shift per coefficient
   (DESIGN.md, section 12). *)
let rho_bits = 64

(* One proof's transcript parts, with the shared g1/g2 encodings hoisted
   out of the per-proof loop (they are the same group elements for every
   share of a batch: the generator and the coin/ciphertext base). *)
let proof_parts ps ~g1b ~g2b (s : statement) (p : t) : string list =
  [ g1b;
    G.elt_to_bytes ps s.h1;
    g2b;
    G.elt_to_bytes ps s.h2;
    G.elt_to_bytes ps p.a1;
    G.elt_to_bytes ps p.a2 ]

(* Deterministic random-linear-combination coefficients, seeded by the
   batch's (c_i, z_i) pairs.  Each c_i is itself a random-oracle hash of
   the full statement and commitments of proof i — and the batch check
   only proceeds once that binding has been re-verified — so hashing the
   (short) serialized proofs commits to every element of every
   transcript without re-absorbing the transcripts themselves.  The z_i
   MUST be absorbed here: they are the one part of a proof not bound by
   its challenge, and coefficients independent of z would let an
   adversary solve for responses that cancel across two bad proofs of
   the same batch (DESIGN.md, section 12). *)
let rlc_coeffs ~domain (proof_bytes : string list) (k : int) :
    (B.t * B.t) array =
  (* one counter-mode expansion covers the whole batch: 16 bytes per
     proof, amortizing the oracle calls instead of hashing per index *)
  let raw =
    Ro.hash_expand ~domain:(domain ^ "/batch-rlc") proof_bytes
      ~len:(k * 2 * (rho_bits / 8))
  in
  Array.init k (fun i ->
      let half n =
        String.sub raw ((2 * i + n) * (rho_bits / 8)) (rho_bits / 8)
      in
      let even v =
        let v = B.shift_right v 1 in
        B.shift_left (if B.is_zero v then B.one else v) 1
      in
      (even (B.of_bytes_be (half 0)), even (B.of_bytes_be (half 1))))

(* The folded check over a non-empty list of (statement, proof):

     g1^{sum z_i rho_i} * g2^{sum z_i sigma_i}
       = prod a1_i^{rho_i} h1_i^{c_i rho_i} a2_i^{sigma_i} h2_i^{c_i sigma_i}

   plus the k hash re-checks binding each c_i to (a1_i, a2_i), plus the
   range check on every response.  One multi-exponentiation (shared
   squaring chain) carries the whole right-hand side; the left folds
   onto the (usually fixed-base-tabled) g1 and g2. *)
let batch_verify ps ~domain (batch : (statement * t) list) : bool =
  match batch with
  | [] -> true
  | (s0, _) :: _ ->
    let g1b = G.elt_to_bytes ps s0.g1 and g2b = G.elt_to_bytes ps s0.g2 in
    Obs_crypto.batch_verify (List.length batch);
    List.for_all
      (fun ((s : statement), (p : t)) ->
        G.is_exponent ps p.z
        (* all statements of one batch share the proving bases *)
        && G.elt_equal s.g1 s0.g1 && G.elt_equal s.g2 s0.g2)
      batch
    && begin
      let hashes_ok =
        List.for_all
          (fun ((s : statement), (p : t)) ->
            B.equal p.c
              (G.hash_to_exponent ps ~domain (proof_parts ps ~g1b ~g2b s p)))
          batch
      in
      hashes_ok
      && begin
        let proof_bytes =
          List.map (fun (_, (p : t)) -> to_bytes ps p) batch
        in
        let coeffs = rlc_coeffs ~domain proof_bytes (List.length batch) in
        (* Exponents stay unreduced: [G.multi_exp] reduces each one mod q,
           so the left-hand sums take one reduction each, not one per
           proof, and c_i rho_i none of its own. *)
        let e1 = ref B.zero and e2 = ref B.zero in
        let rhs = ref [] in
        List.iteri
          (fun i ((s : statement), (p : t)) ->
            let rho, sigma = coeffs.(i) in
            e1 := B.add !e1 (B.mul p.z rho);
            e2 := B.add !e2 (B.mul p.z sigma);
            rhs :=
              (p.a1, rho)
              :: (s.h1, B.mul p.c rho)
              :: (p.a2, sigma)
              :: (s.h2, B.mul p.c sigma)
              :: !rhs)
          batch;
        let lhs = G.multi_exp ps [ (s0.g1, !e1); (s0.g2, !e2) ] in
        G.elt_equal lhs (G.multi_exp ps !rhs)
      end
    end

(* Exact single-proof check used to attribute failures: the classic
   verification plus the binding of the carried commitments to the
   challenge (a proof whose (c, z) verifies but whose carried (a1, a2)
   does not hash to c must be rejected here too, or it would poison
   every batch it joins while passing singleton checks). *)
let verify_one ps ~domain ((s : statement), (p : t)) : bool =
  B.equal p.c (transcript ps ~domain s.g1 s.h1 s.g2 s.h2 p.a1 p.a2)
  && verify ps ~domain ~g1:s.g1 ~h1:s.h1 ~g2:s.g2 ~h2:s.h2 p

(* Indices (into the input list) of the proofs that fail, attributed by
   bisection: re-run the folded check on halves of a failing batch and
   recurse, deciding singletons exactly.  The caller has just seen the
   whole batch fail, so the search starts by splitting it.  A batch
   with one bad proof costs O(log k) sub-batches. *)
let batch_find_bad ps ~domain (batch : (statement * t) list) : int list =
  let rec go (indexed : (int * (statement * t)) list) =
    match indexed with
    | [] -> []
    | [ (i, sp) ] -> if verify_one ps ~domain sp then [] else [ i ]
    | _ ->
      if batch_verify ps ~domain (List.map snd indexed) then []
      else split indexed
  and split indexed =
    Obs_crypto.batch_verify_fallback ();
    let k = List.length indexed / 2 in
    go (List.filteri (fun j _ -> j < k) indexed)
    @ go (List.filteri (fun j _ -> j >= k) indexed)
  in
  match batch with
  | [] -> []
  | _ -> split (List.mapi (fun i sp -> (i, sp)) batch)
