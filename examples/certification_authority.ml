(* A distributed certification authority (paper, Section 5.1).

   Seven servers jointly run a CA whose RSA signing key exists only as
   threshold shares (t = 2): a client obtains a certificate signed under
   the CA's single public key although one server is actively malicious —
   it answers every request with a forged denial — and a second one is
   crashed half-way through.

     dune exec examples/certification_authority.exe *)

let step = ref 0

let banner fmt =
  incr step;
  Printf.printf "\n[%d] " !step;
  Printf.printf fmt

let () =
  print_endline "== distributed certification authority ==";
  let structure = Adversary_structure.threshold ~n:7 ~t:2 in
  let keyring = Keyring.deal ~rsa_bits:256 ~seed:11 structure in
  let sim = Sim.create ~policy:Sim.Random_order ~n:7 ~seed:3 () in
  let deployment =
    Service.deploy ~sim ~keyring ~mode:Service.Plain ~make_app:Ca.make_app ()
  in
  ignore (Service.nodes deployment);

  banner "server 6 turns malicious: it forges denials for every request\n";
  Byzantine.corrupt ~sim ~keyring ~seed:6 ~set:(Pset.singleton 6)
    Byzantine.For_service.forged_denial;

  let client = Service.Client.create ~sim ~keyring ~slot:7 ~seed:99 () in
  let issue id pubkey =
    banner "client requests a certificate for %S\n" id;
    let result = ref None in
    Service.Client.request client ~mode:Service.Plain
      (Ca.issue_request ~id ~pubkey ~credentials:"notarized-papers!ok")
      (fun rc -> result := Some rc);
    Sim.run sim ~until:(fun () -> !result <> None);
    match !result with
    | None -> failwith "request did not complete"
    | Some rc ->
      let response = rc.Service.rc_response in
      (match Ca.parse_certificate response with
      | Some (id', pk, serial) ->
        Printf.printf
          "    certificate issued: id=%s pubkey=%s serial=%d\n\
          \    (threshold-signed under the CA's single public key;\n\
          \     the forged denial from server 6 was outvoted)\n"
          id' pk serial
      | None ->
        (match Codec.decode response with
        | Some ("denied" :: reason) ->
          Printf.printf "    denied: %s\n" (String.concat " " reason)
        | Some _ | None -> print_endline "    unparseable response"))
  in
  issue "alice@example.com" "ed25519:AAAA1111";
  banner "server 1 crashes\n";
  Sim.crash sim 1;
  issue "bob@example.com" "ed25519:BBBB2222";

  banner "client looks up alice's certificate\n";
  let result = ref None in
  Service.Client.request client ~mode:Service.Plain
    (Ca.lookup_request ~id:"alice@example.com") (fun rc -> result := Some rc);
  Sim.run sim ~until:(fun () -> !result <> None);
  (match !result with
  | Some rc ->
    (match Ca.parse_certificate rc.Service.rc_response with
    | Some (id, pk, serial) ->
      Printf.printf "    lookup: id=%s pubkey=%s serial=%d\n" id pk serial
    | None -> print_endline "    lookup failed")
  | None -> failwith "lookup did not complete");

  let m = Sim.metrics sim in
  Printf.printf
    "\ndone: 3 requests served with 1 Byzantine + 1 crashed of 7 servers (%d msgs)\n"
    m.Metrics.messages_sent
