(* Test entry point: one alcotest run covering every library layer, from
   the bignum substrate to the trusted services and the Section 6
   extensions.  All suites are deterministic (seeded PRNG, seeded
   simulator), so failures are always reproducible. *)

let () =
  Alcotest.run "sintra"
    [ Test_obs.suite;
      Test_num.suite;
      Test_hash.suite;
      Test_group.suite;
      Test_sharing.suite;
      Test_crypto.suite;
      Test_crypto_scale.suite;
      Test_protocols.suite;
      Test_baseline.suite;
      Test_membership.suite;
      Test_services.suite;
      Test_services2.suite;
      Test_extensions.suite;
      Test_optimistic.suite;
      Test_misc.suite;
      Test_adversarial.suite;
      Test_faults.suite;
      Test_flight.suite;
      Test_throughput.suite;
      Test_fuzz.suite;
      Test_link.suite;
      Test_faults.layout_suite ]
