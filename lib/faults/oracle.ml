(* Post-run invariant checkers over per-party outcomes.

   Each oracle inspects arrays indexed by party (slot [i] = party [i]'s
   outcome) restricted to an honest set, and returns the violations it
   found.  Violations are classified: a [Safety] violation falsifies a
   property that must hold under every schedule and every corruption in
   the structure; a [Liveness] violation only falsifies the paper's
   claims when the channels were reliable — probabilistic chaos drops
   step outside that model, so campaigns report the two classes
   separately and only safety gates a lossy run. *)

type severity = Safety | Liveness

type violation = {
  oracle : string;
  severity : severity;
  party : int option;
  detail : string;
}

let severity_label = function Safety -> "safety" | Liveness -> "liveness"

let pp_violation fmt v =
  Format.fprintf fmt "[%s/%s]%s %s" v.oracle (severity_label v.severity)
    (match v.party with None -> "" | Some p -> Printf.sprintf " party %d:" p)
    v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

let make ~oracle ~severity ?party detail = { oracle; severity; party; detail }

(* Fold over the honest slots of an outcome array. *)
let honest_slots honest arr =
  let out = ref [] in
  Array.iteri
    (fun p x -> if Pset.mem p honest then out := (p, x) :: !out)
    arr;
  List.rev !out

(* ---------- safety ---------------------------------------------------- *)

let agreement ?(name = "agreement") ~honest ~show outcomes =
  let decided =
    List.filter_map
      (fun (p, o) -> Option.map (fun v -> (p, v)) o)
      (honest_slots honest outcomes)
  in
  match decided with
  | [] | [ _ ] -> []
  | (p0, v0) :: rest ->
    List.filter_map
      (fun (p, v) ->
        if v = v0 then None
        else
          Some
            (make ~oracle:name ~severity:Safety ~party:p
               (Printf.sprintf "decided %s but party %d decided %s" (show v)
                  p0 (show v0))))
      rest

let abba_validity ~honest ~proposals decisions =
  (* If every honest party proposed the same bit, no honest party may
     decide the other bit (a value nobody honest proposed can never win). *)
  let honest_props =
    List.map snd (honest_slots honest proposals) |> List.sort_uniq compare
  in
  match honest_props with
  | [ b ] ->
    List.filter_map
      (fun (p, d) ->
        match d with
        | Some d when d <> b ->
          Some
            (make ~oracle:"abba-validity" ~severity:Safety ~party:p
               (Printf.sprintf
                  "decided %b though every honest party proposed %b" d b))
        | _ -> None)
      (honest_slots honest decisions)
  | _ -> []

let is_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (xs, ys)

let total_order ?(show = fun s -> s) ~honest logs =
  (* No honest log may contain duplicates, and any two honest logs must
     be prefix-comparable — the pairwise form of total order. *)
  let slots = honest_slots honest logs in
  let dups =
    List.filter_map
      (fun (p, log) ->
        let seen = Hashtbl.create 16 in
        let dup =
          List.find_opt
            (fun x ->
              if Hashtbl.mem seen x then true
              else (Hashtbl.add seen x (); false))
            log
        in
        Option.map
          (fun x ->
            make ~oracle:"total-order" ~severity:Safety ~party:p
              (Printf.sprintf "delivered %s twice" (show x)))
          dup)
      slots
  in
  let rec pairs = function
    | [] -> []
    | (p, log) :: rest ->
      List.filter_map
        (fun (q, log') ->
          if is_prefix log log' || is_prefix log' log then None
          else
            Some
              (make ~oracle:"total-order" ~severity:Safety ~party:q
                 (Printf.sprintf
                    "delivery order diverges from party %d (lengths %d / %d)"
                    p (List.length log') (List.length log))))
        rest
      @ pairs rest
  in
  dups @ pairs slots

(* ---------- liveness -------------------------------------------------- *)

let all_decided ?(name = "termination") ~honest outcomes =
  List.filter_map
    (fun (p, o) ->
      match o with
      | Some _ -> None
      | None ->
        Some
          (make ~oracle:name ~severity:Liveness ~party:p
             "did not decide before quiescence"))
    (honest_slots honest outcomes)

let totality ?(name = "totality") ~honest ~expected counts =
  List.filter_map
    (fun (p, c) ->
      if c >= expected then None
      else
        Some
          (make ~oracle:name ~severity:Liveness ~party:p
             (Printf.sprintf "delivered %d of %d expected payloads" c
                expected)))
    (honest_slots honest counts)

let stall_oracle = "progress"

let out_of_steps ?(detail = "") ~at_clock ~pending ~timers () =
  make ~oracle:stall_oracle ~severity:Liveness
    (Printf.sprintf
       "ran out of steps at clock %.0f with %d pending messages, %d timers%s"
       at_clock pending timers
       (if detail = "" then "" else "; " ^ detail))

let is_stall v = v.oracle = stall_oracle

(* ---------- protocol bundles ------------------------------------------ *)

let check_abba ~honest ~proposals decisions =
  agreement ~name:"abba-agreement" ~honest ~show:string_of_bool decisions
  @ abba_validity ~honest ~proposals decisions
  @ all_decided ~name:"abba-termination" ~honest decisions

let check_abc ~honest ~expected logs =
  total_order ~honest logs
  @ totality ~honest ~expected (Array.map List.length logs)

(* Recovery runs compare *digest histories* ([Abc.delivered_digests]):
   these survive checkpoint truncation, so the check spans the whole
   order — certified prefix included — across a crash-rejoin or
   partition-heal.  Pairwise prefix agreement (with the recovered
   party's transferred state in the comparison) is safety; reaching the
   expected total is the liveness evidence that catch-up completed. *)
let check_recovery ~honest ~expected histories =
  total_order
    ~show:(fun d -> "#" ^ String.sub (Sha256.hex d) 0 12)
    ~honest histories
  @ totality ~name:"catch-up-totality" ~honest ~expected
      (Array.map List.length histories)

let count_safety vs =
  List.length (List.filter (fun v -> v.severity = Safety) vs)

let count_liveness vs =
  List.length (List.filter (fun v -> v.severity = Liveness) vs)
