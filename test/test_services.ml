(* Trusted-service tests (paper, Section 5): CA, directory and notary on
   the replicated engine, with clients assembling threshold-signed
   answers; includes a Byzantine server, a generalized-structure
   deployment, and the notary front-running scenario that motivates
   secure causal atomic broadcast. *)

module AS = Adversary_structure

let th41 = AS.threshold ~n:4 ~t:1

let kr41 = lazy (Keyring.deal ~rsa_bits:192 ~seed:5001 th41)

let deploy_service ~seed ~mode ~make_app ?(structure = th41) ?keyring ?obs
    ?read_only () =
  let kr =
    match keyring with
    | Some kr -> kr
    | None ->
      if structure == th41 then Lazy.force kr41
      else Keyring.deal ~rsa_bits:192 ~seed:(seed + 9000) structure
  in
  let sim = Sim.create ?obs ~n:(AS.n structure) ~seed () in
  let nodes =
    Service.nodes
      (Service.deploy ~sim ~keyring:kr ~mode ?read_only ~make_app ())
  in
  (sim, kr, nodes)

(* Issue one request and run the simulator until the client callback
   fires (or the network goes quiescent).  Every accepted certificate is
   re-verified under the service public key. *)
let roundtrip sim kr ~mode ~client_slot ~seed body =
  let client =
    Service.Client.create ~sim ~keyring:kr ~slot:client_slot ~seed ()
  in
  let result = ref None in
  Service.Client.request client ~mode body (fun rc -> result := Some rc);
  Sim.run sim ~until:(fun () -> !result <> None);
  match !result with
  | None -> Alcotest.fail "client request did not complete"
  | Some rc ->
    Alcotest.(check bool) "reply certificate verifies" true
      (Service.verify_reply_cert kr rc);
    (rc.Service.rc_response, rc)

let ca_tests =
  [ Alcotest.test_case "ca: issue and verify a certificate" `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6001 ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        let response, service_sig =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:1
            (Ca.issue_request ~id:"alice" ~pubkey:"pk-alice" ~credentials:"papers!ok")
        in
        (match Ca.parse_certificate response with
        | Some (id, pubkey, serial) ->
          Alcotest.(check string) "id" "alice" id;
          Alcotest.(check string) "pubkey" "pk-alice" pubkey;
          Alcotest.(check int) "serial" 0 serial
        | None -> Alcotest.fail "expected certificate");
        (* The certificate = response + service signature; the statement
           binds the request digest, which the client knows. *)
        ignore service_sig);
    Alcotest.test_case "ca: bad credentials denied" `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6002 ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        let response, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:2
            (Ca.issue_request ~id:"mallory" ~pubkey:"pk-m" ~credentials:"forged")
        in
        Alcotest.(check bool) "denied" true (Ca.parse_certificate response = None));
    Alcotest.test_case "ca: issue, lookup, revoke sequence" `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6003 ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        let r1, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:3
            (Ca.issue_request ~id:"bob" ~pubkey:"pk-bob" ~credentials:"x!ok")
        in
        Alcotest.(check bool) "issued" true (Ca.parse_certificate r1 <> None);
        let r2, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:5 ~seed:4
            (Ca.lookup_request ~id:"bob")
        in
        (match Ca.parse_certificate r2 with
        | Some (_, pk, _) -> Alcotest.(check string) "lookup pubkey" "pk-bob" pk
        | None -> Alcotest.fail "lookup failed");
        let _r3, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:5
            (Ca.revoke_request ~id:"bob")
        in
        let r4, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:5 ~seed:6
            (Ca.lookup_request ~id:"bob")
        in
        Alcotest.(check bool) "revoked invisible" true
          (Ca.parse_certificate r4 = None));
    Alcotest.test_case "ca: survives a crashed server" `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6004 ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        Sim.crash sim 2;
        let response, service_sig =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:7
            (Ca.issue_request ~id:"carol" ~pubkey:"pk-c" ~credentials:"y!ok")
        in
        Alcotest.(check bool) "issued" true (Ca.parse_certificate response <> None);
        ignore service_sig);
    Alcotest.test_case "ca: byzantine server cannot forge the answer" `Quick
      (fun () ->
        (* server 3 answers at once with a forged denial under its own
           share; the client's share verification and the threshold
           signature keep the certificate honest *)
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:6005 () in
        let _ =
          Service.deploy
            ~wrap:
              (Byzantine.wrap_of ~sim ~keyring:kr ~seed:3
                 ~set:(Pset.singleton 3) Byzantine.For_service.forged_denial)
            ~sim ~keyring:kr ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        let response, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:8
            (Ca.issue_request ~id:"dave" ~pubkey:"pk-d" ~credentials:"z!ok")
        in
        match Ca.parse_certificate response with
        | Some (id, _, _) -> Alcotest.(check string) "honest answer wins" "dave" id
        | None -> Alcotest.fail "client accepted the forged denial")
  ]

let directory_tests =
  [ Alcotest.test_case "directory: bind then lookup (signed)" `Quick
      (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6101 ~mode:Service.Plain
            ~make_app:Directory_service.make_app ()
        in
        let _r, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:11
            (Directory_service.bind_request ~key:"www.example.com" ~value:"192.0.2.7")
        in
        let r, signature =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:5 ~seed:12
            (Directory_service.lookup_request ~key:"www.example.com")
        in
        (match Directory_service.parse_value r with
        | Some (k, v) ->
          Alcotest.(check string) "key" "www.example.com" k;
          Alcotest.(check string) "value" "192.0.2.7" v
        | None -> Alcotest.fail "lookup failed");
        ignore signature);
    Alcotest.test_case "directory: update visible to later lookups" `Quick
      (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6102 ~mode:Service.Plain
            ~make_app:Directory_service.make_app ()
        in
        let _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:13
            (Directory_service.bind_request ~key:"k" ~value:"v1")
        in
        let _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:14
            (Directory_service.bind_request ~key:"k" ~value:"v2")
        in
        let r, _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:5 ~seed:15
            (Directory_service.lookup_request ~key:"k")
        in
        match Directory_service.parse_value r with
        | Some (_, v) -> Alcotest.(check string) "updated" "v2" v
        | None -> Alcotest.fail "lookup failed");
    Alcotest.test_case "directory on example2 structure (site+OS corruption)"
      `Quick (fun () ->
        (* the multi-national deployment of the paper: 16 servers in a
           4x4 location/OS grid; crash one full site plus one full OS
           and the directory still answers with a valid signature *)
        let s2 = Canonical_structures.example2 () in
        let kr = Keyring.deal ~seed:6103 s2 in
        let sim = Sim.create ~n:16 ~seed:6103 () in
        let _nodes =
          Service.deploy ~sim ~keyring:kr ~mode:Service.Plain
            ~make_app:Directory_service.make_app ()
        in
        Pset.iter (Sim.crash sim)
          (Canonical_structures.example2_site_plus_os ~row:1 ~col:2);
        let r, signature =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:16 ~seed:16
            (Directory_service.bind_request ~key:"hq" ~value:"zurich")
        in
        Alcotest.(check bool) "bound despite 7 corruptions" true
          (Codec.decode r = Some [ "bound"; "hq" ]);
        ignore signature)
  ]

let notary_tests =
  [ Alcotest.test_case "notary: registration assigns sequence numbers"
      `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6201 ~mode:Service.Confidential
            ~make_app:Notary.make_app ()
        in
        let r1, _ =
          roundtrip sim kr ~mode:Service.Confidential ~client_slot:4 ~seed:21
            (Notary.register_request ~document:"invention: perpetuum mobile")
        in
        (match Notary.parse_registration r1 with
        | Some (seq, _) -> Alcotest.(check int) "first seq" 0 seq
        | None -> Alcotest.fail "registration failed");
        let r2, _ =
          roundtrip sim kr ~mode:Service.Confidential ~client_slot:5 ~seed:22
            (Notary.register_request ~document:"invention: warp drive")
        in
        match Notary.parse_registration r2 with
        | Some (seq, _) -> Alcotest.(check int) "second seq" 1 seq
        | None -> Alcotest.fail "registration failed");
    Alcotest.test_case "notary: duplicate registration returns original seq"
      `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6202 ~mode:Service.Confidential
            ~make_app:Notary.make_app ()
        in
        let doc = "the same idea" in
        let r1, _ =
          roundtrip sim kr ~mode:Service.Confidential ~client_slot:4 ~seed:23
            (Notary.register_request ~document:doc)
        in
        let r2, _ =
          roundtrip sim kr ~mode:Service.Confidential ~client_slot:5 ~seed:24
            (Notary.register_request ~document:doc)
        in
        match (Notary.parse_registration r1, Notary.parse_registration r2) with
        | Some (s1, d1), Some (s2, d2) ->
          Alcotest.(check int) "same seq" s1 s2;
          Alcotest.(check string) "same digest" d1 d2
        | _ -> Alcotest.fail "registrations failed");
    Alcotest.test_case
      "notary: requests stay confidential until ordered (front-running)"
      `Quick (fun () ->
        (* A corrupted server watches all engine traffic for the
           plaintext of a pending filing.  With SC-ABC the payload it
           sees is a TDH2 ciphertext, so the document text never appears
           in any message before the corresponding decryption shares are
           released — i.e. before its position in the order is fixed. *)
        let secret_doc = "secret-invention-xyzzy" in
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:6203 () in
        let leaked = ref false in
        let nodes =
          Service.nodes
            (Service.deploy ~sim ~keyring:kr ~mode:Service.Confidential
               ~make_app:Notary.make_app ())
        in
        let spy_wraps (m : Service.msg) =
          (* search the raw broadcast payloads for the plaintext *)
          let contains_secret s =
            let n = String.length s and m = String.length secret_doc in
            let rec go i =
              i + m <= n && (String.sub s i m = secret_doc || go (i + 1))
            in
            go 0
          in
          match m with
          | Service.Request { body; _ } | Service.Query { body; _ } ->
            contains_secret body
          | Service.Engine (Service.Abc_m (Abc.Request p))
          | Service.Engine
              (Service.Scabc_m (Scabc.Abc_msg (Abc.Request p))) ->
            contains_secret p
          | Service.Engine _ | Service.Response _ -> false
        in
        (* server 3 is the spy: it behaves honestly but records whether
           any pre-decryption message reveals the document *)
        Sim.wrap_handler sim 3 (fun honest ~src frame ->
            let before_decryption =
              Scabc.delivered_count
                (match nodes.(3).Service.engine with
                | Some (Service.Scabc_e sc) -> sc
                | Some _ | None -> assert false)
              = 0
            in
            (if before_decryption then
               match frame with
               | Link.Raw m | Link.Data { payload = m; _ } ->
                 if spy_wraps m then leaked := true
               | Link.Ack _ -> ());
            honest ~src frame);
        let client =
          Service.Client.create ~sim ~keyring:kr ~slot:4 ~seed:25 ()
        in
        let result = ref None in
        Service.Client.request client ~mode:Service.Confidential
          (Notary.register_request ~document:secret_doc) (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        Alcotest.(check bool) "registered" true (!result <> None);
        Alcotest.(check bool) "plaintext never visible before ordering" false
          !leaked);
    Alcotest.test_case "notary (plain abc) leaks the document pre-ordering"
      `Quick (fun () ->
        (* Control experiment: with plain atomic broadcast the document
           text is visible to every server before ordering completes. *)
        let secret_doc = "secret-invention-plain" in
        let kr = Lazy.force kr41 in
        let sim = Sim.create ~n:4 ~seed:6204 () in
        let leaked = ref false in
        let nodes =
          Service.nodes
            (Service.deploy ~sim ~keyring:kr ~mode:Service.Plain
               ~make_app:Notary.make_app ())
        in
        let contains_secret s =
          let n = String.length s and m = String.length secret_doc in
          let rec go i =
            i + m <= n && (String.sub s i m = secret_doc || go (i + 1))
          in
          go 0
        in
        ignore nodes;
        Sim.wrap_handler sim 3 (fun honest ~src frame ->
            (match frame with
            | Link.Raw m | Link.Data { payload = m; _ } -> (
              match m with
              | Service.Request { body; _ } when contains_secret body ->
                leaked := true
              | Service.Engine (Service.Abc_m (Abc.Request p))
                when contains_secret p ->
                leaked := true
              | Service.Request _ | Service.Query _ | Service.Engine _
              | Service.Response _ ->
                ())
            | Link.Ack _ -> ());
            honest ~src frame);
        let client =
          Service.Client.create ~sim ~keyring:kr ~slot:4 ~seed:26 ()
        in
        let result = ref None in
        Service.Client.request client ~mode:Service.Plain
          (Notary.register_request ~document:secret_doc) (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        Alcotest.(check bool) "registered" true (!result <> None);
        Alcotest.(check bool) "plaintext visible with plain abc" true !leaked)
  ]

(* The request path's replay guard: ordered duplicates of the same
   (client, nonce) must not re-execute the state machine — under the
   confidential engine a corrupted server can re-encrypt a captured
   request under fresh TDH2 randomness, and the distinct ciphertext
   passes the broadcast's content dedup. *)
let dedup_tests =
  [ Alcotest.test_case "execution dedups a replayed (client, nonce)" `Quick
      (fun () ->
        let sim, _, nodes =
          deploy_service ~seed:6301 ~mode:Service.Plain ~make_app:Ca.make_app
            ~obs:(Obs.create ()) ()
        in
        let request nonce body =
          Codec.encode_svc_request ~client:0 ~nonce ~body
        in
        let server = nodes.(0) in
        Service.deliver_ordered server (request "n1" (Ca.issue_request ~id:"a" ~pubkey:"pk-a" ~credentials:"cred-a"));
        Service.deliver_ordered server (request "n1" (Ca.issue_request ~id:"a" ~pubkey:"pk-a" ~credentials:"cred-a"));
        Service.deliver_ordered server (request "n2" (Ca.issue_request ~id:"b" ~pubkey:"pk-b" ~credentials:"cred-b"));
        Sim.run sim;
        Alcotest.(check int) "executed once per distinct nonce" 2
          server.Service.executed;
        Alcotest.(check int) "replay suppressed and counted" 1
          server.Service.dup_suppressed;
        (* The suppressed duplicate still re-answers from cache, so the
           observability counter is the only way to tell it happened. *)
        match
          Obs_registry.find
            (Obs.snapshot (Sim.obs sim))
            ~labels:[ ("layer", "service") ]
            "service_dup_suppressed"
        with
        | Some (Obs_registry.Vcounter c) ->
          Alcotest.(check bool) "counter incremented" true (c >= 1)
        | _ -> Alcotest.fail "missing service_dup_suppressed counter");
    Alcotest.test_case "distinct clients with equal nonces both execute"
      `Quick (fun () ->
        let sim, _, nodes =
          deploy_service ~seed:6302 ~mode:Service.Plain ~make_app:Ca.make_app
            ()
        in
        let server = nodes.(0) in
        Service.deliver_ordered server
          (Codec.encode_svc_request ~client:0 ~nonce:"n1"
             ~body:(Ca.issue_request ~id:"a" ~pubkey:"p" ~credentials:"c"));
        Service.deliver_ordered server
          (Codec.encode_svc_request ~client:1 ~nonce:"n1"
             ~body:(Ca.issue_request ~id:"b" ~pubkey:"q" ~credentials:"c"));
        Sim.run sim;
        Alcotest.(check int) "both executed" 2 server.Service.executed;
        Alcotest.(check int) "nothing suppressed" 0
          server.Service.dup_suppressed) ]

(* ------------------------------------------------------------------ *)
(* Read-only fast path                                                 *)
(* ------------------------------------------------------------------ *)

let run_query sim kr ~slot ~seed ?fast_attempts ~mode body =
  let client =
    Service.Client.create ?fast_attempts ~sim ~keyring:kr ~slot ~seed ()
  in
  let result = ref None in
  Service.Client.query client ~mode body (fun rc -> result := Some rc);
  Sim.run sim ~until:(fun () -> !result <> None);
  match !result with
  | None -> Alcotest.fail "query did not complete"
  | Some rc ->
    Alcotest.(check bool) "query certificate verifies" true
      (Service.verify_reply_cert kr rc);
    (rc, client)

let fastpath_tests =
  [ Alcotest.test_case "query: read-only lookup assembles a fast cert" `Quick
      (fun () ->
        let sim, kr, nodes =
          deploy_service ~seed:6401 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        let _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:31
            (Directory_service.bind_request ~key:"k" ~value:"v")
        in
        let executed_before = nodes.(0).Service.executed in
        let rc, client =
          run_query sim kr ~slot:5 ~seed:32 ~mode:Service.Plain
            (Directory_service.lookup_request ~key:"k")
        in
        Alcotest.(check bool) "fast domain" true rc.Service.rc_fast;
        (match Directory_service.parse_value rc.Service.rc_response with
        | Some (_, v) -> Alcotest.(check string) "value" "v" v
        | None -> Alcotest.fail "lookup failed");
        Alcotest.(check int) "client counted the fast hit" 1
          (Service.Client.fastpath_hits client);
        (* no broadcast round: the ordered log did not grow *)
        Alcotest.(check int) "nothing newly ordered" executed_before
          nodes.(0).Service.executed;
        Alcotest.(check bool) "replicas served the query" true
          (Array.exists (fun n -> n.Service.queries_served > 0) nodes));
    Alcotest.test_case "query: mutating body refused, falls back to ordered"
      `Quick (fun () ->
        let sim, kr, nodes =
          deploy_service ~seed:6402 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        let rc, client =
          run_query sim kr ~slot:4 ~seed:33 ~fast_attempts:1
            ~mode:Service.Plain
            (Directory_service.bind_request ~key:"w" ~value:"x")
        in
        Alcotest.(check bool) "completed on the ordered path" false
          rc.Service.rc_fast;
        Alcotest.(check int) "one fallback" 1 (Service.Client.fallbacks client);
        Alcotest.(check int) "no fast hit" 0
          (Service.Client.fastpath_hits client);
        Alcotest.(check bool) "replicas refused the write as a query" true
          (Array.exists (fun n -> n.Service.queries_refused > 0) nodes);
        Alcotest.(check bool) "the write executed" true
          (nodes.(0).Service.executed > 0));
    Alcotest.test_case "query: forged content cannot outvote honest answers"
      `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6403 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        let _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:34
            (Directory_service.bind_request ~key:"k" ~value:"honest")
        in
        (* server 3 answers every query with a forged value under a
           perfectly valid share: one share is below every qualified
           set, so the forgery never assembles *)
        Sim.set_handler sim 3 (fun ~src:_ (frame : Service.msg Link.frame) ->
            match frame with
            | Link.Raw (Service.Query { client; body })
            | Link.Data { payload = Service.Query { client; body }; _ } ->
              let req_digest = Sha256.digest body in
              let response = Codec.encode [ "value"; "k"; "forged" ] in
              let share =
                Keyring.service_sign_share kr ~party:3
                  (Service.query_statement ~req_digest ~response)
              in
              Sim.send sim ~src:3 ~dst:client
                (Link.Raw
                   (Service.Response
                      (Codec.encode_svc_reply ~fast:true ~req_digest
                         ~server:3 ~response
                         ~share:(Keyring.sig_share_to_bytes kr share))))
            | Link.Raw _ | Link.Data _ | Link.Ack _ -> ());
        let rc, _ =
          run_query sim kr ~slot:5 ~seed:35 ~mode:Service.Plain
            (Directory_service.lookup_request ~key:"k")
        in
        match Directory_service.parse_value rc.Service.rc_response with
        | Some (_, v) -> Alcotest.(check string) "honest value wins" "honest" v
        | None -> Alcotest.fail "lookup failed");
    Alcotest.test_case "query: reply claiming another server's slot rejected"
      `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6404 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        let _ =
          roundtrip sim kr ~mode:Service.Plain ~client_slot:4 ~seed:36
            (Directory_service.bind_request ~key:"k" ~value:"v")
        in
        (* honest servers drop queries entirely; server 3 impersonates
           server 0 with a genuine share — so the ONLY fast replies the
           client sees carry a transport source that contradicts the
           claimed server slot *)
        for i = 0 to 2 do
          Sim.wrap_handler sim i (fun honest ~src frame ->
              match frame with
              | Link.Raw (Service.Query _)
              | Link.Data { payload = Service.Query _; _ } ->
                ()
              | _ -> honest ~src frame)
        done;
        Sim.wrap_handler sim 3 (fun honest ~src frame ->
            match frame with
            | Link.Raw (Service.Query { client; body })
            | Link.Data { payload = Service.Query { client; body }; _ } ->
              let req_digest = Sha256.digest body in
              let response = Codec.encode [ "value"; "k"; "v" ] in
              let share =
                Keyring.service_sign_share kr ~party:3
                  (Service.query_statement ~req_digest ~response)
              in
              Sim.send sim ~src:3 ~dst:client
                (Link.Raw
                   (Service.Response
                      (Codec.encode_svc_reply ~fast:true ~req_digest
                         ~server:0 ~response
                         ~share:(Keyring.sig_share_to_bytes kr share))))
            | _ -> honest ~src frame);
        let rc, client =
          run_query sim kr ~slot:5 ~seed:37 ~mode:Service.Plain
            (Directory_service.lookup_request ~key:"k")
        in
        Alcotest.(check bool) "impersonation counted as rejected" true
          (Service.Client.rejected_replies client >= 1);
        Alcotest.(check bool) "never assembles from forged sources" false
          rc.Service.rc_fast;
        match Directory_service.parse_value rc.Service.rc_response with
        | Some (_, v) ->
          Alcotest.(check string) "ordered fallback answers honestly" "v" v
        | None -> Alcotest.fail "lookup failed");
    Alcotest.test_case
      "ordered request refuses fast-kind replies (no write downgrade)" `Quick
      (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6405 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        (* server 3 tries to answer an ordered write with a fast-domain
           reply — accepting it would mean the write never serialized *)
        Sim.set_handler sim 3 (fun ~src:_ (frame : Service.msg Link.frame) ->
            match frame with
            | Link.Raw (Service.Request { client; body })
            | Link.Data { payload = Service.Request { client; body }; _ } ->
              let req_digest = Sha256.digest body in
              let response = Codec.encode [ "bound"; "k" ] in
              let share =
                Keyring.service_sign_share kr ~party:3
                  (Service.query_statement ~req_digest ~response)
              in
              Sim.send sim ~src:3 ~dst:client
                (Link.Raw
                   (Service.Response
                      (Codec.encode_svc_reply ~fast:true ~req_digest
                         ~server:3 ~response
                         ~share:(Keyring.sig_share_to_bytes kr share))))
            | Link.Raw _ | Link.Data _ | Link.Ack _ -> ());
        let client =
          Service.Client.create ~sim ~keyring:kr ~slot:4 ~seed:38 ()
        in
        let result = ref None in
        Service.Client.request client ~mode:Service.Plain
          (Directory_service.bind_request ~key:"k" ~value:"v") (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        match !result with
        | None -> Alcotest.fail "request did not complete"
        | Some rc ->
          Alcotest.(check bool) "ordered certificate" false rc.Service.rc_fast;
          Alcotest.(check bool) "fast-kind reply rejected" true
            (Service.Client.rejected_replies client >= 1));
    Alcotest.test_case
      "a bad reply share does not block completion and is counted" `Quick
      (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6406 ~mode:Service.Plain
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        (* server 3 takes no part in ordering but answers every request
           at once, under its own name, with a share over the wrong
           statement: the client sees it before any honest share *)
        Sim.set_handler sim 3 (fun ~src:_ (frame : Service.msg Link.frame) ->
            match frame with
            | Link.Raw (Service.Request { client; body })
            | Link.Data { payload = Service.Request { client; body }; _ } ->
              let req_digest = Sha256.digest body in
              let response = Codec.encode [ "bound"; "k" ] in
              let share =
                Keyring.service_sign_share kr ~party:3 "not the reply statement"
              in
              Sim.send sim ~src:3 ~dst:client
                (Link.Raw
                   (Service.Response
                      (Codec.encode_svc_reply ~fast:false ~req_digest
                         ~server:3 ~response
                         ~share:(Keyring.sig_share_to_bytes kr share))))
            | Link.Raw _ | Link.Data _ | Link.Ack _ -> ());
        let client = Service.Client.create ~sim ~keyring:kr ~slot:4 ~seed:39 () in
        let result = ref None in
        Service.Client.request client ~mode:Service.Plain
          (Directory_service.bind_request ~key:"k" ~value:"v") (fun rc ->
            result := Some rc);
        Sim.run sim ~until:(fun () -> !result <> None);
        (match !result with
        | None -> Alcotest.fail "request blocked by the bad share"
        | Some rc ->
          Alcotest.(check bool) "certificate verifies" true
            (Service.verify_reply_cert kr rc);
          Alcotest.(check string) "honest response certified"
            (Codec.encode [ "bound"; "k" ]) rc.Service.rc_response);
        Alcotest.(check int) "bad share counted once" 1
          (Service.Client.rejected_replies client))
  ]

(* ------------------------------------------------------------------ *)
(* Reply certificates: negative paths                                  *)
(* ------------------------------------------------------------------ *)

let cert_tests =
  let kr = Lazy.force kr41 in
  let d = Sha256.digest "some request frame" in
  let resp = "the answer" in
  let stmt = Service.response_statement ~req_digest:d ~response:resp in
  let assemble parties stmt =
    Keyring.service_combine kr stmt
      (List.map (fun p -> Keyring.service_sign_share kr ~party:p stmt) parties)
  in
  [ Alcotest.test_case "reply cert: t+1 shares assemble, bytes round-trip"
      `Quick (fun () ->
        match assemble [ 0; 1 ] stmt with
        | None -> Alcotest.fail "combine failed on a qualified set"
        | Some sg ->
          let rc =
            { Service.rc_fast = false; rc_req_digest = d; rc_response = resp;
              rc_sig = sg }
          in
          Alcotest.(check bool) "verifies" true
            (Service.verify_reply_cert kr rc);
          let b = Service.reply_cert_to_bytes kr rc in
          (match Service.reply_cert_of_bytes kr b with
          | None -> Alcotest.fail "decode failed"
          | Some rc' ->
            Alcotest.(check bool) "round-tripped cert verifies" true
              (Service.verify_reply_cert kr rc');
            Alcotest.(check string) "response preserved" resp
              rc'.Service.rc_response));
    Alcotest.test_case "reply cert: sub-threshold share set fails" `Quick
      (fun () ->
        let ok =
          match assemble [ 0 ] stmt with
          | None -> true
          | Some sg ->
            not
              (Service.verify_reply_cert kr
                 { Service.rc_fast = false; rc_req_digest = d;
                   rc_response = resp; rc_sig = sg })
        in
        Alcotest.(check bool) "one share below t+1 never certifies" true ok);
    Alcotest.test_case "reply cert: wrong-statement share poisons assembly"
      `Quick (fun () ->
        let other =
          Service.response_statement ~req_digest:d ~response:"something else"
        in
        let shares =
          [ Keyring.service_sign_share kr ~party:0 stmt;
            Keyring.service_sign_share kr ~party:1 other ]
        in
        let ok =
          match Keyring.service_combine kr stmt shares with
          | None -> true
          | Some sg -> not (Keyring.service_verify kr stmt sg)
        in
        Alcotest.(check bool) "mixed statements never certify" true ok);
    Alcotest.test_case "reply cert: mixed digest rejected" `Quick (fun () ->
        match assemble [ 0; 1 ] stmt with
        | None -> Alcotest.fail "combine failed"
        | Some sg ->
          let rc =
            { Service.rc_fast = false;
              rc_req_digest = Sha256.digest "a different request";
              rc_response = resp; rc_sig = sg }
          in
          Alcotest.(check bool) "digest is bound by the signature" false
            (Service.verify_reply_cert kr rc));
    Alcotest.test_case "reply cert: fast cert cannot pose as ordered" `Quick
      (fun () ->
        let qstmt = Service.query_statement ~req_digest:d ~response:resp in
        match assemble [ 0; 1 ] qstmt with
        | None -> Alcotest.fail "combine failed"
        | Some sg ->
          let fast_rc =
            { Service.rc_fast = true; rc_req_digest = d; rc_response = resp;
              rc_sig = sg }
          in
          Alcotest.(check bool) "verifies in its own domain" true
            (Service.verify_reply_cert kr fast_rc);
          Alcotest.(check bool) "rejected in the ordered domain" false
            (Service.verify_reply_cert kr
               { fast_rc with Service.rc_fast = false }))
  ]

(* ------------------------------------------------------------------ *)
(* Request parsing: the empty-nonce regression                         *)
(* ------------------------------------------------------------------ *)

let u64_be v =
  String.init 8 (fun i -> Char.chr ((v lsr (8 * (7 - i))) land 0xff))

let nonce_tests =
  [ Alcotest.test_case "parse_request rejects an empty nonce" `Quick
      (fun () ->
        (* hand-build the frame: the encoder refuses to produce it *)
        let body = Ca.lookup_request ~id:"x" in
        let frame =
          "SVQ1" ^ u64_be 0 ^ u64_be 0 ^ u64_be (String.length body) ^ body
        in
        Alcotest.(check bool) "rejected" true
          (Service.parse_request frame = None);
        Alcotest.(check bool) "encoder refuses an empty nonce" true
          (try
             ignore (Codec.encode_svc_request ~client:0 ~nonce:"" ~body);
             false
           with Invalid_argument _ -> true);
        (* a well-formed frame still parses *)
        match
          Service.parse_request
            (Codec.encode_svc_request ~client:7 ~nonce:"n" ~body)
        with
        | Some (7, "n", b) -> Alcotest.(check string) "body" body b
        | _ -> Alcotest.fail "well-formed frame rejected");
    Alcotest.test_case "ordered empty-nonce frame counts as malformed" `Quick
      (fun () ->
        let sim, _, nodes =
          deploy_service ~seed:6501 ~mode:Service.Plain ~make_app:Ca.make_app
            ()
        in
        let server = nodes.(0) in
        let body = Ca.issue_request ~id:"a" ~pubkey:"p" ~credentials:"c" in
        let frame =
          "SVQ1" ^ u64_be 0 ^ u64_be 0 ^ u64_be (String.length body) ^ body
        in
        Service.deliver_ordered server frame;
        Service.deliver_ordered server frame;
        Sim.run sim;
        Alcotest.(check int) "nothing executed" 0 server.Service.executed;
        Alcotest.(check int) "both counted malformed" 2
          server.Service.malformed;
        Alcotest.(check int) "no dedup slot consumed" 0
          server.Service.dup_suppressed)
  ]

(* ------------------------------------------------------------------ *)
(* Reply path: bare shares, subset search, no proofs                   *)
(* ------------------------------------------------------------------ *)

let reply_path_tests =
  [ Alcotest.test_case
      "n=7: off-by-one bare shares from one replier are each named once"
      `Quick (fun () ->
        let sim, kr, _ =
          deploy_service ~seed:6601 ~mode:Service.Plain
            ~structure:(AS.threshold ~n:7 ~t:2)
            ~make_app:Directory_service.make_app
            ~read_only:Directory_service.read_only ()
        in
        let bad = 4 and slot = 7 in
        let client = Service.Client.create ~sim ~keyring:kr ~slot ~seed:61 () in
        let completed = Hashtbl.create 16 in
        (* (request, kind, response) groups a bad share entered while its
           request was still pending *)
        let reached = Hashtbl.create 16 in
        Sim.wrap_handler sim slot (fun honest ~src frame ->
            match frame with
            | Link.Raw (Service.Response f) when src = bad -> (
              match Codec.decode_svc_reply f with
              | Some (fast, req_digest, server, response, share_b) -> (
                match Keyring.sig_share_of_bytes kr share_b with
                | Some (Keyring.Rsa_share s) ->
                  let x = Bignum.add s.Rsa_threshold.x Bignum.one in
                  let share =
                    Keyring.Rsa_share { s with Rsa_threshold.x; proof = None }
                  in
                  if not (Hashtbl.mem completed req_digest) then
                    Hashtbl.replace reached (req_digest, fast, response) ();
                  honest ~src
                    (Link.Raw
                       (Service.Response
                          (Codec.encode_svc_reply ~fast ~req_digest ~server
                             ~response
                             ~share:(Keyring.sig_share_to_bytes kr share))))
                | Some (Keyring.Cert_share _) | None ->
                  Alcotest.fail "expected an RSA reply share")
              | None -> Alcotest.fail "undecodable reply")
            | _ -> honest ~src frame);
        let run submit body =
          let result = ref None in
          submit client ~mode:Service.Plain body (fun rc -> result := Some rc);
          Sim.run sim ~until:(fun () -> !result <> None);
          match !result with
          | None -> Alcotest.fail "request did not complete"
          | Some rc ->
            Hashtbl.replace completed rc.Service.rc_req_digest ();
            Alcotest.(check bool) "reply certificate verifies" true
              (Service.verify_reply_cert kr rc);
            rc
        in
        for i = 0 to 3 do
          let key = Printf.sprintf "k%d" i and value = Printf.sprintf "v%d" i in
          let w =
            run Service.Client.request (Directory_service.bind_request ~key ~value)
          in
          Alcotest.(check bool) "ordered write" false w.Service.rc_fast;
          let r =
            run Service.Client.query (Directory_service.lookup_request ~key)
          in
          Alcotest.(check bool) "fast read" true r.Service.rc_fast;
          Alcotest.(check (option (pair string string))) "read sees the write"
            (Some (key, value))
            (Directory_service.parse_value r.Service.rc_response)
        done;
        Alcotest.(check int) "every request completed" 8
          (Service.Client.completed client);
        let kinds = Hashtbl.fold (fun (_, fast, _) () acc -> fast :: acc) reached [] in
        Alcotest.(check bool) "bad shares reached fast and ordered groups" true
          (List.mem true kinds && List.mem false kinds);
        Alcotest.(check int) "each such share named once" (Hashtbl.length reached)
          (Service.Client.rejected_replies client));
    Alcotest.test_case "benign svc run: no reply-path proofs, same signing"
      `Quick (fun () ->
        let c =
          Svc.campaign ~clients:2 ~window:2 ~keyspace:4
            (Support.core ~seeds:1 12)
        in
        let env = Sweep.prepare c in
        Obs_crypto.enable ();
        Obs_crypto.reset ();
        Fun.protect
          ~finally:(fun () ->
            Obs_crypto.disable ();
            Obs_crypto.reset ())
          (fun () ->
            let r = Sweep.run_cell c env (Svc.Ca_svc, Svc.Benign) ~seed:1 in
            Alcotest.(check int) "every request completed" r.Svc.vr_target
              r.Svc.vr_completed;
            Alcotest.(check bool) "fast and ordered replies both ran" true
              (r.Svc.vr_fast_hits > 0 && r.Svc.vr_ordered > 0);
            Alcotest.(check int) "no share proof generated" 0
              (Obs_crypto.count Obs_crypto.Share_proof);
            Alcotest.(check int) "no share proof checked" 0
              (Obs_crypto.count Obs_crypto.Share_verify);
            (* Pinned: a bare share is still one signing operation, so
               dropping the reply proofs left this count as it was.  A
               schedule change (relaying a payload once, say) moves it. *)
            Alcotest.(check int) "signing operations" 175
              (Obs_crypto.count Obs_crypto.Sign)));
    Alcotest.test_case "benign notary svc run: each ciphertext checked once"
      `Quick (fun () ->
        let c =
          Svc.campaign ~clients:2 ~window:2 ~keyspace:4
            (Support.core ~seeds:1 12)
        in
        let env = Sweep.prepare c in
        Obs_crypto.enable ();
        Obs_crypto.reset ();
        Fun.protect
          ~finally:(fun () ->
            Obs_crypto.disable ();
            Obs_crypto.reset ())
          (fun () ->
            let r =
              Sweep.run_cell c env (Svc.Notary_svc, Svc.Benign) ~seed:1
            in
            Alcotest.(check int) "every request completed" r.Svc.vr_target
              r.Svc.vr_completed;
            (* Pinned: checking each ciphertext once left these
               protocol counts as they were when every replica re-checked
               it before sharing and at every combine; only the repeated
               checks (two membership and two proof exponentiations
               each) went.  A schedule change (relaying a payload once,
               say) moves them.  Signature checks leave out each
               replica's own signatures, which enter its memo as it
               signs them, and since a combined reply signature passes
               its public check by construction, the client no longer
               re-checks the 12 certificates it assembles (270 before);
               the campaign's own re-check of each is still counted. *)
            List.iter
              (fun (name, kind, before) ->
                Alcotest.(check int) name before (Obs_crypto.count kind))
              [ ("signing operations", Obs_crypto.Sign, 171);
                ("combines", Obs_crypto.Combine, 82);
                ("signature checks", Obs_crypto.Verify, 258);
                ("batched share checks", Obs_crypto.Batch_verify, 28) ];
            Alcotest.(check bool) "fewer modular exponentiations" true
              (Obs_crypto.count Obs_crypto.Modexp < 552)))
  ]

(* ------------------------------------------------------------------ *)
(* Relay once: client resends do not flood the order                  *)
(* ------------------------------------------------------------------ *)

(* [writes] CA writes from each of two clients, each client keeping one
   in flight; [on_done k] runs after the k-th completion overall.
   Returns the clients and a run-to-completion function. *)
let ca_writers sim kr ~n ~writes ~on_done =
  let clients =
    Array.init 2 (fun i ->
        Service.Client.create ~sim ~keyring:kr ~slot:(n + i) ~seed:(71 + i) ())
  in
  let total = ref 0 in
  let rec write ci k =
    if k < writes then
      Service.Client.request clients.(ci) ~mode:Service.Plain
        (Ca.issue_request
           ~id:(Printf.sprintf "id-%d-%d" ci k)
           ~pubkey:"pk" ~credentials:"cred")
        (fun _ ->
          incr total;
          on_done !total;
          write ci (k + 1))
  in
  Array.iteri (fun ci _ -> write ci 0) clients;
  let run () =
    Sim.run sim ~until:(fun () -> !total = 2 * writes);
    Alcotest.(check int) "every write completed" (2 * writes) !total;
    (* drain: resend timers of completed requests fire and do nothing *)
    Sim.run sim
  in
  (clients, run)

let relay_tests =
  [ Alcotest.test_case
      "benign n=7 CA run: at most n^2 abc requests per write" `Quick
      (fun () ->
        let n = 7 in
        let sim, kr, _ =
          deploy_service ~seed:6701 ~mode:Service.Plain
            ~structure:(AS.threshold ~n ~t:2) ~make_app:Ca.make_app ()
        in
        (* Each server counts the ABC relays it receives, the
           [abc.request] class of the per-layer message attribution. *)
        let requests = ref 0 in
        for p = 0 to n - 1 do
          Sim.wrap_handler sim p (fun honest ~src frame ->
              (match frame with
              | Link.Raw (Service.Engine (Service.Abc_m (Abc.Request _))) ->
                incr requests
              | _ -> ());
              honest ~src frame)
        done;
        let writes = 4 in
        let clients, run =
          ca_writers sim kr ~n ~writes ~on_done:(fun _ -> ())
        in
        run ();
        let retries =
          Array.fold_left (fun a c -> a + Service.Client.retries c) 0 clients
        in
        Alcotest.(check bool)
          (Printf.sprintf "clients resent (%d resends)" retries)
          true (retries > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%d requests for %d writes, at most %d" !requests
             (2 * writes) (n * n * 2 * writes))
          true
          (!requests <= n * n * 2 * writes));
    Alcotest.test_case
      "GC'd svc run with a revive: relay and digest state follow the queue"
      `Quick (fun () ->
        let kr = Lazy.force kr41 in
        let n = 4 and victim = 3 in
        let sim = Sim.create ~n ~seed:6702 () in
        let dep =
          Service.deploy ~ckpt_interval:2 ~sim ~keyring:kr
            ~mode:Service.Plain ~make_app:Ca.make_app ()
        in
        let writes = 8 in
        let _, run =
          ca_writers sim kr ~n ~writes ~on_done:(fun k ->
              if k = 4 then Sim.crash sim victim
              else if k = 10 then ignore (Service.revive dep victim))
        in
        run ();
        let nodes = Service.nodes dep in
        (match Service.recovery_of nodes.(victim) with
        | Some r ->
          Alcotest.(check bool) "the revived replica installed a checkpoint"
            true
            (Recovery.transfers r > 0)
        | None -> Alcotest.fail "expected a checkpointing engine");
        Array.iteri
          (fun p node ->
            match Service.abc_of node with
            | None -> Alcotest.fail "expected an ABC engine"
            | Some abc ->
              let queued = List.length (Abc.pending abc) in
              Alcotest.(check bool)
                (Printf.sprintf "replica %d truncated its log" p)
                true
                (Abc.base_len abc > 0);
              Alcotest.(check int)
                (Printf.sprintf "replica %d: queue drained" p)
                0 queued;
              Alcotest.(check int)
                (Printf.sprintf "replica %d: relayed set empty" p)
                0 (Abc.relay_pending abc);
              Alcotest.(check bool)
                (Printf.sprintf "replica %d: %d memoized digests, log %d"
                   p (Abc.digest_memo_len abc) (Abc.log_len abc))
                true
                (Abc.digest_memo_len abc <= Abc.log_len abc + queued))
          nodes) ]

(* Reply bodies carry integers in exactly the form [string_of_int]
   writes; every other spelling [int_of_string] accepts is refused. *)
let noncanonical = [ "+1"; "0x1"; "0b1"; "0o1"; "1_0"; "-0"; "01"; " 1"; "" ]

let decimal_tests =
  [ Alcotest.test_case "ca: certificate serial must be canonical" `Quick
      (fun () ->
        let cert serial = Codec.encode [ "certificate"; "id"; "pk"; serial ] in
        Alcotest.(check (option (triple string string int))) "10"
          (Some ("id", "pk", 10)) (Ca.parse_certificate (cert "10"));
        List.iter
          (fun s ->
            Alcotest.(check bool) s true (Ca.parse_certificate (cert s) = None))
          noncanonical);
    Alcotest.test_case "notary: registration sequence must be canonical" `Quick
      (fun () ->
        let reg seq = Codec.encode [ "registered"; seq; "digest" ] in
        Alcotest.(check (option (pair int string))) "10" (Some (10, "digest"))
          (Notary.parse_registration (reg "10"));
        List.iter
          (fun s ->
            Alcotest.(check bool) s true (Notary.parse_registration (reg s) = None))
          noncanonical);
    Alcotest.test_case "auth: ticket issue time must be canonical" `Quick
      (fun () ->
        let ticket issued = Codec.encode [ "ticket"; "alice"; issued ] in
        Alcotest.(check (option (pair string int))) "10" (Some ("alice", 10))
          (Auth_service.parse_ticket (ticket "10"));
        List.iter
          (fun s ->
            Alcotest.(check bool) s true (Auth_service.parse_ticket (ticket s) = None))
          noncanonical)
  ]

let suite =
  ( "services",
    ca_tests @ directory_tests @ notary_tests @ dedup_tests @ fastpath_tests
    @ cert_tests @ nonce_tests @ reply_path_tests @ relay_tests
    @ decimal_tests )
