(* Plain (non-threshold) Schnorr signatures over the shared group.

   Used where the protocols call for ordinary digital signatures from
   individual servers — e.g. the signed proposals inside the atomic
   broadcast protocol ("every party digitally signs the message it
   proposes for the current round", Section 3). *)

module B = Bignum
module G = Schnorr_group

type keypair = { sk : B.t; pk : G.elt }
type signature = { c : B.t; z : B.t }

let domain = "sintra/schnorr"

let generate (ps : G.params) (rng : Prng.t) : keypair =
  let sk = G.random_exponent ps rng in
  { sk; pk = G.exp_g ps sk }

let challenge ps ~a ~pk ~msg =
  G.hash_to_exponent ps ~domain:(domain ^ "/c")
    [ G.elt_to_bytes ps a; G.elt_to_bytes ps pk; msg ]

let sign (ps : G.params) (kp : keypair) (msg : string) : signature =
  Obs_crypto.sign ();
  (* Deterministic nonce (RFC 6979 style). *)
  let r =
    G.hash_to_exponent ps ~domain:(domain ^ "/nonce")
      [ B.to_bytes_be kp.sk; msg ]
  in
  let a = G.exp_g ps r in
  let c = challenge ps ~a ~pk:kp.pk ~msg in
  { c; z = G.response ps ~r ~c ~x:kp.sk }

let verify (ps : G.params) ~(pk : G.elt) (msg : string) (s : signature) : bool
    =
  Obs_crypto.verify ();
  G.is_exponent ps s.z
  && begin
    (* a = g^z * pk^-c.  A public key is long-lived, so it gets a
       fixed-base table like g, and both fold into one accumulator. *)
    G.prepare_base ps pk;
    let a = G.recommit ps ~g:ps.G.g ~z:s.z ~h:pk ~c:s.c in
    B.equal s.c (challenge ps ~a ~pk ~msg)
  end

let to_bytes (ps : G.params) (s : signature) : string =
  G.exponent_to_bytes ps s.c ^ G.exponent_to_bytes ps s.z

(* Both halves decode unchecked: a [z] out of range fails {!verify}. *)
let of_bytes (ps : G.params) (raw : string) : signature option =
  let len = G.exponent_len ps in
  if String.length raw <> 2 * len then None
  else
    Some
      { c = B.of_bytes_be (String.sub raw 0 len);
        z = B.of_bytes_be (String.sub raw len len) }
