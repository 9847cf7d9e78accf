(* Epoch-reconfiguration campaigns over the {!Epoch} subsystem: seeded
   scenario runs with proactive-security oracles and a machine-readable
   EPOCH report.

   Each run streams client payloads through an epoch-wrapped deployment
   while the sweep's scenario reconfigures the service sharing online —
   a proactive refresh, a membership change that adds a replica, or a
   kill-and-replace (crash the victim, reshare it out, revive it,
   reshare it back in) — under a benign network, 30% loss restored by
   the ARQ link, or an equivocating Byzantine refresher.

   Every delivered payload is countersigned with the signer's *current*
   epoch sharing ({!Cert_sig}), so the reply-certificate oracle checks
   end to end that the service kept answering across every boundary:
   for each payload some epoch's share group recombines into a
   certificate valid under the never-changing public key.  The
   proactive oracles check that the public key survived every advance
   and that pre-epoch shares die at the boundary: a qualified-size mix
   of old and new shares reconstructs garbage. *)

module AS = Adversary_structure
module G = Schnorr_group

type scenario = Refresh_only | Add_replica | Kill_replace

let scenario_label = function
  | Refresh_only -> "refresh-only"
  | Add_replica -> "add-replica"
  | Kill_replace -> "kill-and-replace"

type variant = Benign | Lossy | Byz_refresher

let variant_label = function
  | Benign -> "benign"
  | Lossy -> "lossy"
  | Byz_refresher -> "byz-refresher"

(* The checkpoint period of the wrapped recovery, the batching policy,
   the lossy variant's chaos drop rate unless the core sets one, and the
   per-run step bound unless the core sets one. *)
let interval = 4
let abc_policy = { Abc.default_policy with Abc.max_batch_msgs = 4; window = 2 }
let drop = 0.3
let max_steps = 800_000

type run_result = {
  er_scenario : scenario;
  er_seed : int;
  er_variant : variant;
  er_victim : int;
  er_epochs : int;  (* epochs every live replica reached *)
  er_completed : bool;  (* stream + reconfiguration done, no safety *)
  er_pk_stable : bool;  (* public key identical across every epoch *)
  er_old_shares_dead : bool;  (* qualified old/new mix opens garbage *)
  er_certs_ok : int;  (* payloads with a valid reply certificate *)
  er_excluded : int;  (* dealer exclusions witnessed across replicas *)
  er_replaced_serving : bool;  (* victim signs from the final epoch *)
  er_violations : Oracle.violation list;
  er_steps : int;
}

type cell = scenario * variant

let cell_label (scenario, variant) =
  scenario_label scenario ^ "/" ^ variant_label variant

(* The monitor's poll period, virtual time. *)
let poll = 200.0

(* The reconfiguration opens at 35% of the stream.  Kill-and-replace
   crashes the victim and reshares it out there, then revives it at 70%
   once the survivors hold the new epoch, and reshares it back in once
   it has caught up. *)
let timeline ~drop scenario variant =
  let open Sweep in
  let chaos =
    match variant with
    | Lossy -> lossy drop
    | Benign | Byz_refresher -> Sim.benign_chaos
  in
  { at = Start; act = Chaos chaos }
  ::
  (match scenario with
  | Refresh_only -> [ { at = Progress 0.35; act = Refresh } ]
  | Add_replica -> [ { at = Progress 0.35; act = Reshare All } ]
  | Kill_replace ->
    [ { at = Progress 0.35; act = Crash };
      { at = Progress 0.35; act = Reshare All_but_victim };
      { at = Progress 0.7; act = Revive };
      { at = Progress 0.7; act = Reshare All } ])

(* A [t]-of-members access structure over the full party universe: the
   removed replicas simply own no leaves.  Used as the reshare target
   for membership changes. *)
let member_structure ~n ~t members =
  AS.of_access_formula ~n
    (Monotone_formula.threshold (t + 1)
       (List.map Monotone_formula.leaf members))

(* ---------- one scenario run ------------------------------------------ *)

let run_one ~(core : Sweep.core) ~max_steps (env : Sweep.env)
    (scenario, variant) ~seed timeline =
  let { Sweep.n; t; size = payloads; _ } = core in
  let keyring = env.keyring in
  let victim = abs seed mod n in
  let byz = (victim + 1) mod n in
  let others = List.filter (fun p -> p <> victim) (List.init n Fun.id) in
  (* Initial service sharing: the add-replica scenario starts with the
     victim outside the access structure and reshares it in; the others
     start on the full threshold structure. *)
  let structure0 =
    match scenario with
    | Add_replica -> member_structure ~n ~t others
    | Refresh_only | Kill_replace -> AS.threshold ~n ~t
  in
  let sharing0 =
    Dl_sharing.deal keyring.Keyring.group structure0
      (Prng.create ~seed:(seed lxor 0x3a11))
  in
  let pk = sharing0.Dl_sharing.public_key in
  let sim = Sim.create ~n ~seed ~obs:env.obs () in
  let faults = Sweep.start env ~victim sim timeline in
  let link = match variant with Lossy -> Some Link.default_policy | _ -> None in
  let tag =
    Printf.sprintf "epoch-%s-%s-%d" (scenario_label scenario)
      (variant_label variant) seed
  in
  (* Reply-certificate bookkeeping: payload -> epoch -> per-party share
     lists, written by each node's deliver hook with its then-current
     sharing.  [epoch_sharings] collects every installed sharing (they
     are identical across replicas: deterministic install of identical
     certified bodies). *)
  let sigs : (string, (int, (int * Cert_sig.share list) list) Hashtbl.t)
      Hashtbl.t =
    Hashtbl.create 64
  in
  let epoch_sharings : (int, Dl_sharing.t) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace epoch_sharings 0 sharing0;
  let depref = ref None in
  (* Distinct application payloads each party has delivered: the raw
     [Abc.delivered_count] also counts certified advances, and a revived
     incarnation re-delivers its replayed prefix. *)
  let seen_payloads = Array.init n (fun _ -> Hashtbl.create 64) in
  let deliver me payload =
    Hashtbl.replace seen_payloads.(me) payload ();
    match !depref with
    | None -> ()
    | Some dep ->
      let node = (Epoch.nodes dep).(me) in
      let sh = Epoch.sharing node in
      if Dl_sharing.shares_of sh me <> [] then begin
        let per_epoch =
          match Hashtbl.find_opt sigs payload with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 4 in
            Hashtbl.replace sigs payload h;
            h
        in
        let e = Epoch.epoch node in
        let entries =
          match Hashtbl.find_opt per_epoch e with Some l -> l | None -> []
        in
        if not (List.mem_assoc me entries) then
          Hashtbl.replace per_epoch e
            ((me, Cert_sig.sign_share sh ~party:me payload) :: entries)
      end
  in
  let dep =
    Epoch.deploy ~policy:abc_policy ?link ~interval
      ~seed:(seed lxor 0xe90c) ~sim ~keyring
      ~sharing:sharing0 ~tag ~deliver ()
  in
  depref := Some dep;
  let nodes () = Epoch.nodes dep in
  let watch_advances node =
    Epoch.set_on_advance node (fun ~epoch ~sharing ->
        if not (Hashtbl.mem epoch_sharings epoch) then
          Hashtbl.replace epoch_sharings epoch sharing)
  in
  Array.iter watch_advances (nodes ());
  Sweep.stream sim ~victim
    (List.init payloads (fun k -> Printf.sprintf "etx-%d-%d" seed k))
    (fun s payload -> Epoch.submit (nodes ()).(s) payload);
  let count p = Hashtbl.length seen_payloads.(p) in
  let epoch_of p = Epoch.epoch (nodes ()).(p) in
  let alive p = not (Sim.is_crashed sim p) in
  let progress () =
    List.fold_left (fun acc p -> max acc (count p)) 0 others
  in
  (* The reconfiguration trigger: open the epoch on every live replica;
     under the Byzantine variant the [byz] replica instead equivocates —
     two different valid packages, one to each half of its peers — and
     stays silent in the advance protocol. *)
  let byz_active = variant = Byz_refresher in
  let byz_frames = ref None in
  let equivocate target =
    let node = (nodes ()).(byz) in
    let sh = Epoch.sharing node in
    if Dl_sharing.shares_of sh byz <> [] then begin
      let frames =
        match !byz_frames with
        | Some fs -> fs
        | None ->
          let tgt = Proactive.target_of sh (target sh) in
          let mk k =
            let rng = Prng.create ~seed:(seed lxor (0xb1 + k)) in
            Codec.encode_reshare_pkg sh.Dl_sharing.group
              (Proactive.make_reshare sh tgt ~dealer:byz rng)
          in
          let fs = (mk 0, mk 1) in
          byz_frames := Some fs;
          fs
      in
      let fa, fb = frames in
      let epoch = Epoch.epoch node + 1 in
      List.iteri
        (fun i p ->
          let frame = if i mod 2 = 0 then fa else fb in
          Sim.send sim ~src:byz ~dst:p
            (Link.Raw (Epoch.Refresh { epoch; frame })))
        (List.filter (fun p -> p <> byz) (List.init n Fun.id))
    end
  in
  let open_epoch target =
    byz_frames := None;
    Array.iteri
      (fun p node ->
        if alive p && not (byz_active && p = byz) then
          Epoch.begin_reshare node (target (Epoch.sharing node)))
      (nodes ());
    if byz_active && alive byz then equivocate target
  in
  let target_full = AS.threshold ~n ~t in
  let target_without_victim = member_structure ~n ~t others in
  (* The structure an epoch action reshares onto, given a replica's
     current sharing: a refresh keeps that sharing's structure. *)
  let target_of action (sh : Dl_sharing.t) =
    match action with
    | Sweep.Reshare Sweep.All -> target_full
    | Sweep.Reshare Sweep.All_but_victim -> target_without_victim
    | _ -> sh.Dl_sharing.structure
  in
  let final_epoch = match scenario with Kill_replace -> 2 | _ -> 1 in
  (* A replica that installed an epoch while its catch-up was still
     replaying can have the next certified advance fast-forwarded past
     it inside a newer checkpoint; the self-certifying chain is its only
     remaining source, so keep re-pulling stragglers while an epoch with
     every member is open. *)
  let pull_stragglers = function
    | Sweep.Refresh | Sweep.Reshare Sweep.All ->
      Array.iteri
        (fun p node ->
          if alive p && Epoch.epoch node < final_epoch then
            Epoch.start_pull node)
        (nodes ())
    | _ -> ()
  in
  (* One extra payload submitted only after every replica has installed
     the final epoch: its reply certificate proves the service is still
     answering — with the victim countersigning — from the new sharing. *)
  let tail_payload = Printf.sprintf "etx-%d-tail" seed in
  let tail_submitted = ref false in
  Sweep.drive faults ~monitor:((victim + 2) mod n) ~period:poll
    ~total:payloads ~progress ~epoch:epoch_of
    ~nudge:(function
      | (Sweep.Refresh | Sweep.Reshare _) as a ->
        (* Re-send the equivocation while the epoch is open: the frames
           are one-shot raw sends and the variant's network is benign,
           but proposal races can outpace a single volley. *)
        if byz_active && alive byz && epoch_of byz < final_epoch then
          equivocate (target_of a);
        pull_stragglers a
      | _ -> ())
    ~tick:(fun () ->
      if Sweep.settled faults && not !tail_submitted then begin
        tail_submitted := true;
        Epoch.submit (nodes ()).(victim) tail_payload
      end;
      false)
    (function
      | Sweep.Revive -> watch_advances (Epoch.revive dep victim)
      | (Sweep.Refresh | Sweep.Reshare _) as a ->
        open_epoch (target_of a);
        pull_stragglers a
      | _ -> ());
  let stream_total () = payloads + if !tail_submitted then 1 else 0 in
  (* A revived replica fast-forwards over the checkpointed prefix, so
     it never sees pre-checkpoint payloads one by one: its liveness
     condition is delivering the post-reconfiguration tail live. *)
  let caught_up p =
    if scenario = Kill_replace && p = victim then
      Hashtbl.mem seen_payloads.(p) tail_payload
    else count p >= stream_total ()
  in
  let done_ () =
    !tail_submitted
    && Array.for_all (fun node -> Epoch.epoch node >= final_epoch) (nodes ())
    && List.for_all caught_up (List.init n Fun.id)
  in
  (* Nudge stragglers the way an operator would, as in the recovery
     campaign: a quiesced replica slightly behind re-fetches. *)
  let stall =
    Sweep.run_sim sim ~max_steps ~until:done_ ~retry:(fun () ->
        Array.iteri
          (fun p node ->
            if alive p && ((not (caught_up p)) || epoch_of p < final_epoch)
            then begin
              Recovery.start_catch_up (Epoch.recovery node);
              Epoch.start_pull node
            end)
          (nodes ()))
  in
  (* ---- oracles ---- *)
  let honest = Pset.full n in
  let histories =
    Array.map
      (fun node -> Abc.delivered_digests (Recovery.abc (Epoch.recovery node)))
      (nodes ())
  in
  let order_violations =
    Oracle.check_recovery ~honest ~expected:payloads histories @ stall
  in
  (* Public-key invariance across every installed epoch. *)
  let pk_stable =
    Hashtbl.fold
      (fun _ sh acc -> acc && G.elt_equal sh.Dl_sharing.public_key pk)
      epoch_sharings true
  in
  (* Old shares die at a refresh boundary: a qualified-size mix of
     pre- and post-epoch subshares reconstructs a value whose exponent
     misses the public key.  Checked on every same-structure advance
     (membership changes swap schemes, making cross-epoch mixing
     impossible outright). *)
  let old_shares_dead =
    Hashtbl.fold
      (fun e sh_new acc ->
        acc
        &&
        match Hashtbl.find_opt epoch_sharings (e - 1) with
        | None -> true
        | Some sh_old ->
          if sh_old.Dl_sharing.scheme != sh_new.Dl_sharing.scheme
             && AS.access_formula sh_old.Dl_sharing.structure
                <> AS.access_formula sh_new.Dl_sharing.structure
          then true
          else begin
            let holders =
              List.filter
                (fun p -> Dl_sharing.shares_of sh_new p <> [])
                (List.init n Fun.id)
            in
            match holders with
            | a :: b :: _ ->
              let mix =
                Lsss.shares_of_party sh_old.Dl_sharing.subshares a
                @ Lsss.shares_of_party sh_new.Dl_sharing.subshares b
              in
              (match
                 Lsss.reconstruct sh_new.Dl_sharing.scheme mix
                   (Pset.of_list [ a; b ])
               with
              | None -> true
              | Some v ->
                not (G.elt_equal (G.exp_g sh_new.Dl_sharing.group v) pk))
            | _ -> false
          end)
      epoch_sharings true
  in
  (* Reply certificates: every payload must recombine, in some epoch's
     share group, into a certificate valid under the original public
     key.  The final sharing record is the verifier's view — its public
     key equals the original whenever pk_stable holds. *)
  let certs_ok = ref 0 in
  List.iter
    (fun k ->
      let payload = Printf.sprintf "etx-%d-%d" seed k in
      match Hashtbl.find_opt sigs payload with
      | None -> ()
      | Some per_epoch ->
        let ok =
          Hashtbl.fold
            (fun e entries acc ->
              acc
              ||
              match Hashtbl.find_opt epoch_sharings e with
              | None -> false
              | Some sh -> (
                match Cert_sig.combine sh payload entries with
                | None -> false
                | Some cert -> Cert_sig.verify sh payload cert))
            per_epoch false
        in
        if ok then incr certs_ok)
    (List.init payloads Fun.id);
  let excluded_witnessed =
    Array.fold_left
      (fun acc node -> acc + Epoch.excluded_total node)
      0 (nodes ())
  in
  let final_sharing = Hashtbl.find_opt epoch_sharings final_epoch in
  (* The replaced replica answers from the new epoch: it holds final-
     epoch shares and actually countersigned some payload with them. *)
  let victim_signed_final =
    Hashtbl.fold
      (fun _ per_epoch acc ->
        acc
        ||
        match Hashtbl.find_opt per_epoch final_epoch with
        | Some entries -> List.mem_assoc victim entries
        | None -> false)
      sigs false
  in
  let replaced_serving =
    match scenario with
    | Kill_replace | Add_replica -> (
      match final_sharing with
      | None -> false
      | Some sh -> Dl_sharing.shares_of sh victim <> [] && victim_signed_final)
    | Refresh_only -> true
  in
  let proactive_violations =
    Sweep.unless pk_stable Oracle.Safety "epoch-pk-invariant"
      "public key changed across an epoch advance"
    @ Sweep.unless old_shares_dead Oracle.Safety "epoch-old-shares"
        "pre-epoch shares still recombine to the secret"
    @ Sweep.unless
        ((not byz_active) || excluded_witnessed > 0)
        ~party:byz Oracle.Liveness "epoch-equivocation"
        "equivocating refresher never excluded"
  in
  let violations = order_violations @ proactive_violations in
  let safety = Oracle.count_safety violations in
  let epochs_reached =
    Array.fold_left (fun acc node -> min acc (Epoch.epoch node)) max_int
      (nodes ())
  in
  {
    er_scenario = scenario;
    er_seed = seed;
    er_variant = variant;
    er_victim = victim;
    er_epochs = (if epochs_reached = max_int then 0 else epochs_reached);
    er_completed = done_ () && safety = 0;
    er_pk_stable = pk_stable;
    er_old_shares_dead = old_shares_dead;
    er_certs_ok = !certs_ok;
    er_excluded = excluded_witnessed;
    er_replaced_serving = replaced_serving;
    er_violations = violations;
    er_steps = Sim.steps sim;
  }

(* ---------- the campaign ---------------------------------------------- *)

let run_json r =
  [
    ("victim", Obs_json.Int r.er_victim);
    ("epochs", Obs_json.Int r.er_epochs);
    ("completed", Obs_json.Bool r.er_completed);
    ("pk_stable", Obs_json.Bool r.er_pk_stable);
    ("old_shares_dead", Obs_json.Bool r.er_old_shares_dead);
    ("certs_ok", Obs_json.Int r.er_certs_ok);
    ("excluded", Obs_json.Int r.er_excluded);
    ("replaced_serving", Obs_json.Bool r.er_replaced_serving);
  ]

let close ~payloads _env (t : Sweep.totals) results =
  let total f = float (Sweep.sum f results) in
  let failing f = total (fun r -> Bool.to_int (not (f r))) in
  let byz = List.filter (fun r -> r.er_variant = Byz_refresher) results in
  Report.
    [
      must Lower "safety violations" ~limit:0.0 (float t.safety);
      threshold Lower "liveness violations" (float t.liveness);
      must Higher "completed runs" ~limit:(float t.runs)
        (total (fun r -> Bool.to_int r.er_completed));
      must Higher "reply certificates"
        ~limit:(float (t.runs * payloads))
        (total (fun r -> r.er_certs_ok));
      info "dealers excluded" (total (fun r -> r.er_excluded));
      threshold Lower "steps" (float t.steps);
      must Lower "runs with a changed public key" ~limit:0.0
        (failing (fun r -> r.er_pk_stable));
      must Lower "runs with live old shares" ~limit:0.0
        (failing (fun r -> r.er_old_shares_dead));
      must Lower "runs with an unserving replacement" ~limit:0.0
        (failing (fun r -> r.er_replaced_serving));
      must Lower "Byzantine sweep without an exclusion" ~limit:0.0
        (float
           (Bool.to_int
              (byz <> [] && List.for_all (fun r -> r.er_excluded = 0) byz)));
    ]

let campaign (core : Sweep.core) =
  let drop = Option.value core.drop ~default:drop
  and max_steps = Option.value core.max_steps ~default:max_steps in
  {
    Sweep.kind = Report.Epoch;
    core;
    max_steps;
    key_offset = 8810;
    cells =
      Sweep.product
        [ Refresh_only; Add_replica; Kill_replace ]
        [ Benign; Lossy; Byz_refresher ];
    label = cell_label;
    timeline = (fun (scenario, variant) -> timeline ~drop scenario variant);
    run_one = run_one ~core ~max_steps;
    violations = (fun r -> r.er_violations);
    steps = (fun r -> r.er_steps);
    row = run_json;
    close = close ~payloads:core.size;
    constants = [ ("interval", Obs_json.Int interval) ];
  }
