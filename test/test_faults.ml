(* The fault-injection determinism contract ({!P_semantics.Fault} under
   the checker): a fixed plan and seed give a bit-identical verdict,
   state count, transition count, and fired-fault count across repeated
   runs, across domain counts, and across engines; an all-zero plan is
   normalized away everywhere; and the spec language round-trips. The
   guard rails (faults × liveness, faults × sleep-set POR) must refuse
   loudly rather than silently explore an unsound product. *)

open P_checker
module Fault = P_semantics.Fault

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let dup_plan = Fault.with_seed 0 { Fault.none with dup = 300 }

(* One run of the verifier under a plan, compressed to everything the
   determinism contract promises to hold fixed. *)
let verify_digest ?domains ?(faults = dup_plan) p =
  let r = Verifier.verify ~delay_bound:2 ~max_states:300_000 ?domains ~faults p in
  match r.Verifier.safety with
  | None -> Alcotest.fail "static checking failed"
  | Some { Search.verdict; stats } ->
    ( (match verdict with
      | Search.No_error -> "clean"
      | Search.Error_found ce -> Fmt.str "error: %a" P_semantics.Errors.pp ce.error),
      stats.Search.states,
      stats.Search.transitions,
      stats.Search.faults )

let test_verify_deterministic_20_runs () =
  (* the acceptance bar: twenty repeats of a fault-injected verification
     agree on verdict, states, transitions, and fired faults *)
  let p = P_examples_lib.Leader_ring.program () in
  let ((verdict, _, _, faults) as first) = verify_digest p in
  check bool_t "the adversary refutes the clean protocol" true (verdict <> "clean");
  check bool_t "faults fired" true (faults > 0);
  for i = 2 to 20 do
    if verify_digest p <> first then
      Alcotest.failf "repeat %d diverged under a fixed plan" i
  done

let test_verify_domain_count_invariant () =
  let p = P_examples_lib.Failover_chain.program () in
  let seq = verify_digest p in
  let d1 = verify_digest ~domains:1 p in
  let d4 = verify_digest ~domains:4 p in
  check bool_t "sequential ≡ 1 domain under faults" true (seq = d1);
  check bool_t "1 domain ≡ 4 domains under faults" true (d1 = d4)

let test_guard_rails () =
  let p = P_examples_lib.Pingpong.program () in
  check bool_t "faults × liveness refused" true
    (try
       ignore (Verifier.verify ~liveness:true ~faults:dup_plan p : Verifier.report);
       false
     with Invalid_argument _ -> true);
  check bool_t "faults × sleep-set POR refused" true
    (try
       ignore (Verifier.verify ~reduce:Reduce.por ~faults:dup_plan p : Verifier.report);
       false
     with Invalid_argument _ -> true)

let test_zero_plan_normalized () =
  let p = P_examples_lib.Pingpong.program () in
  let r = Verifier.verify ~delay_bound:1 ~faults:(Fault.with_seed 42 Fault.none) p in
  check bool_t "all-zero plan recorded as no plan" true (r.Verifier.faults = None);
  let digest (r : Verifier.report) =
    match r.Verifier.safety with
    | Some { Search.stats; _ } ->
      (stats.Search.states, stats.Search.transitions, stats.Search.faults)
    | None -> Alcotest.fail "static checking failed"
  in
  check bool_t "identical to the fault-free search" true
    (digest r = digest (Verifier.verify ~delay_bound:1 p))

let test_spec_roundtrip () =
  let ok s =
    match Fault.of_string s with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let p = ok "drop=0.05,dup=0.25,reorder=0.125,delay=0.01,crash=0.002" in
  check int_t "drop per-mille" 50 p.Fault.drop;
  check int_t "dup per-mille" 250 p.Fault.dup;
  check int_t "reorder per-mille" 125 p.Fault.reorder;
  check int_t "delay per-mille" 10 p.Fault.delay;
  check int_t "crash per-mille" 2 p.Fault.crash;
  check bool_t "to_string round-trips" true (Fault.of_string (Fault.to_string p) = Ok p);
  check bool_t "empty spec is none" true (Fault.is_none (ok ""));
  check bool_t "\"none\" is none" true (Fault.is_none (ok "none"));
  List.iter
    (fun s ->
      check bool_t (s ^ " rejected") true (Result.is_error (Fault.of_string s)))
    [ "drop=2.5"; "drop=-0.1"; "bogus=0.5"; "drop"; "drop=abc" ]

let test_simulate_deterministic () =
  let tab = P_static.Check.run_exn (P_examples_lib.Failover_chain.program ()) in
  let plan =
    Fault.with_seed 9
      { Fault.none with drop = 150; dup = 150; reorder = 150; delay = 100; crash = 80 }
  in
  let run () =
    let r =
      P_semantics.Simulate.run ~max_blocks:5_000
        ~policy:(P_semantics.Simulate.policy_seeded 4) ~faults:plan tab
    in
    ( Fmt.str "%a" P_semantics.Simulate.pp_status r.P_semantics.Simulate.status,
      r.P_semantics.Simulate.blocks,
      List.length r.P_semantics.Simulate.trace )
  in
  let a = run () in
  let b = run () in
  check bool_t "same plan, same simulation" true (a = b);
  let zero =
    P_semantics.Simulate.run ~max_blocks:5_000
      ~policy:(P_semantics.Simulate.policy_seeded 4)
      ~faults:(Fault.with_seed 9 Fault.none) tab
  in
  let base =
    P_semantics.Simulate.run ~max_blocks:5_000
      ~policy:(P_semantics.Simulate.policy_seeded 4) tab
  in
  check int_t "all-zero plan simulates fault-free" base.P_semantics.Simulate.blocks
    zero.P_semantics.Simulate.blocks

let suite =
  [ Alcotest.test_case "verify: 20 repeats agree" `Slow test_verify_deterministic_20_runs;
    Alcotest.test_case "verify: domain-count invariant" `Slow
      test_verify_domain_count_invariant;
    Alcotest.test_case "guard rails refuse unsound products" `Quick test_guard_rails;
    Alcotest.test_case "all-zero plan normalized" `Quick test_zero_plan_normalized;
    Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "simulate deterministic" `Quick test_simulate_deterministic ]
