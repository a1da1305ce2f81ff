(* Tests for the systematic-testing engines: the delay-bounded causal
   scheduler, the depth-bounded baseline, counterexample traces, and the
   liveness checks. *)

open P_checker

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let tab_of p = P_static.Check.run_exn p

let explore ?(max_states = 200_000) d p =
  Delay_bounded.explore ~delay_bound:d ~max_states (tab_of p)

let is_error r = match r.Search.verdict with Search.Error_found _ -> true | _ -> false

(* ---------------- safety search ---------------- *)

let test_pingpong_clean () =
  List.iter
    (fun d ->
      let r = explore d (P_examples_lib.Pingpong.program ~rounds:2 ()) in
      check bool_t (Fmt.str "d=%d clean" d) false (is_error r);
      check bool_t "not truncated" false r.stats.truncated)
    [ 0; 1; 2; 3 ]

let test_pingpong_bug_found () =
  let r = explore 0 (P_examples_lib.Pingpong.buggy_program ~rounds:2 ()) in
  match r.verdict with
  | Search.Error_found ce -> (
    match ce.error.kind with
    | P_semantics.Errors.Assert_failure _ -> ()
    | k -> Alcotest.failf "wrong error kind: %a" P_semantics.Errors.pp_kind k)
  | Search.No_error -> Alcotest.fail "bug not found"

let test_states_monotone_in_delay_bound () =
  let tab = tab_of (P_examples_lib.Elevator.program ()) in
  let states d = (Delay_bounded.explore ~delay_bound:d ~max_states:500_000 tab).stats.states in
  let s0 = states 0 and s1 = states 1 and s2 = states 2 in
  check bool_t "s0 < s1" true (s0 < s1);
  check bool_t "s1 < s2" true (s1 < s2)

let test_exploration_deterministic () =
  let tab = tab_of (P_examples_lib.Elevator.program ()) in
  let r1 = Delay_bounded.explore ~delay_bound:2 tab in
  let r2 = Delay_bounded.explore ~delay_bound:2 tab in
  check int_t "same states" r1.stats.states r2.stats.states;
  check int_t "same transitions" r1.stats.transitions r2.stats.transitions

(* the headline empirical claim: bugs found within delay bound 2 in all
   three Figure 7 benchmarks *)
let test_bugs_found_within_bound_2 () =
  List.iter
    (fun (name, p) ->
      let found =
        List.exists (fun d -> is_error (explore ~max_states:500_000 d p)) [ 0; 1; 2 ]
      in
      check bool_t (name ^ " bug within d<=2") true found)
    [ ("elevator", P_examples_lib.Elevator.buggy_program ());
      ("switchled", P_examples_lib.Switch_led.buggy_program ());
      ("german", P_examples_lib.German.buggy_program ()) ]

let test_good_benchmarks_clean_at_low_bounds () =
  List.iter
    (fun (name, p, d) ->
      let r = explore ~max_states:500_000 d p in
      check bool_t (Fmt.str "%s clean at d=%d" name d) false (is_error r))
    [ ("elevator", P_examples_lib.Elevator.program (), 2);
      ("switchled", P_examples_lib.Switch_led.program (), 2);
      ("german", P_examples_lib.German.program (), 1);
      ("tokenring", P_examples_lib.Token_ring.program (), 2);
      ("boundedbuffer", P_examples_lib.Bounded_buffer.program (), 2) ]

let test_max_states_truncates () =
  let r = explore ~max_states:50 2 (P_examples_lib.Elevator.program ()) in
  check bool_t "truncated" true r.stats.truncated;
  check bool_t "states within budget" true (r.stats.states <= 60)

let test_counterexample_trace_replay () =
  let r = explore 1 (P_examples_lib.Pingpong.buggy_program ~rounds:2 ()) in
  match r.verdict with
  | Search.Error_found ce ->
    check bool_t "trace nonempty" true (List.length ce.trace > 3);
    (* the trace must start with the creation of the main machine *)
    (match List.hd ce.trace with
    | P_semantics.Trace.Created { creator = None; _ } -> ()
    | _ -> Alcotest.fail "trace must start at machine creation");
    check bool_t "depth positive" true (ce.depth > 0)
  | Search.No_error -> Alcotest.fail "bug not found"

(* d=0 equivalence: the checker's zero-delay schedule behaves like the
   deterministic simulator *)
let test_d0_matches_simulator () =
  (* on a deterministic program (no ghost choices), d=0 explores exactly the
     simulator's single execution path: states = blocks + 1 *)
  let p = P_examples_lib.Pingpong.program ~rounds:2 () in
  let tab = tab_of p in
  let sim = P_semantics.Simulate.run tab in
  let r = Delay_bounded.explore ~delay_bound:0 tab in
  check bool_t "simulator quiescent" true (sim.status = P_semantics.Simulate.Quiescent);
  check int_t "one linear path" (sim.blocks + 1) r.stats.states

(* ---------------- depth-bounded baseline ---------------- *)

let test_depth_bounded_finds_bug () =
  let r =
    Depth_bounded.explore ~depth_bound:30 (tab_of (P_examples_lib.Pingpong.buggy_program ~rounds:2 ()))
  in
  check bool_t "found" true (is_error r)

let test_depth_bounded_explodes_faster () =
  (* at matched budgets, full scheduling nondeterminism visits at least as
     many states as the causal scheduler with a small delay budget *)
  let p = P_examples_lib.German.program () in
  let tab = tab_of p in
  let delay = Delay_bounded.explore ~delay_bound:0 ~max_states:100_000 tab in
  let depth = Depth_bounded.explore ~depth_bound:15 ~max_states:100_000 tab in
  check bool_t "depth-bounded visits more states for shallow coverage" true
    (depth.stats.states >= delay.stats.states)

let test_depth_bound_zero_is_initial_state_only () =
  let r = Depth_bounded.explore ~depth_bound:0 (tab_of (P_examples_lib.Pingpong.program ())) in
  check int_t "just the root" 1 r.stats.states

(* ---------------- liveness ---------------- *)

let test_liveness_clean_on_terminating () =
  let r = Liveness.check (tab_of (P_examples_lib.Pingpong.program ~rounds:2 ())) in
  check int_t "no violations" 0 (List.length r.violations);
  check bool_t "complete" true r.complete

let starving_program ~postpone =
  (* A consumes `work`; B floods `noise` that A always defers (and never
     dequeues): under fairness `noise` is deferred forever unless postponed *)
  let open P_syntax.Builder in
  let a =
    machine "A"
      [ state "Run"
          ~defer:[ "noise" ]
          ~postpone:(if postpone then [ "noise" ] else [])
          ~entry:skip ]
  in
  let b =
    machine "B" ~ghost:true
      ~vars:[ var_decl "peer" P_syntax.Ptype.Machine_id ]
      [ state "Init" ~entry:(seq [ new_ "peer" "A" []; raise_ "u" ]);
        state "Flood" ~entry:(seq [ send (v "peer") "noise"; raise_ "u" ]) ]
      ~steps:[ ("Init", "u", "Flood"); ("Flood", "u", "Flood") ]
  in
  program ~events:[ event "noise"; event "u" ] ~machines:[ b; a ] "B"

let test_liveness_detects_starvation () =
  let r = Liveness.check (tab_of (starving_program ~postpone:false)) in
  check bool_t "starvation found" true
    (List.exists
       (function Liveness.Deferred_forever _ -> true | _ -> false)
       r.violations)

let test_liveness_witness_lasso () =
  let r = Liveness.check (tab_of (starving_program ~postpone:false)) in
  match r.witnesses with
  | [ (Liveness.Deferred_forever { event; _ }, Some w) ] ->
    check bool_t "starved event is noise" true
      (P_syntax.Names.Event.to_string event = "noise");
    check bool_t "prefix nonempty" true (w.Liveness.prefix <> []);
    check bool_t "cycle nonempty" true (w.Liveness.cycle <> []);
    (* the cycle must never dequeue the starved event *)
    check bool_t "cycle never dequeues noise" true
      (List.for_all
         (function
           | P_semantics.Trace.Dequeued { event; _ } ->
             P_syntax.Names.Event.to_string event <> "noise"
           | _ -> true)
         w.Liveness.cycle);
    (* and must re-send it (dedup keeps it pending), i.e. the loop is real *)
    check bool_t "cycle schedules someone" true (w.Liveness.cycle_machines <> [])
  | _ -> Alcotest.fail "expected exactly one witnessed starvation"

let test_postpone_suppresses_starvation () =
  let r = Liveness.check (tab_of (starving_program ~postpone:true)) in
  check int_t "postponed: clean" 0 (List.length r.violations)

let self_spinner ~ghost =
  (* a machine that sends itself an event forever: ◇□ sched(m) *)
  let open P_syntax.Builder in
  let a =
    machine "Spin" ~ghost
      [ state "Run" ~entry:(send this "go") ]
      ~steps:[ ("Run", "go", "Run") ]
  in
  program ~events:[ event "go" ] ~machines:[ a ] "Spin"

let test_liveness_witness_divergence () =
  let r = Liveness.check (tab_of (self_spinner ~ghost:false)) in
  match
    List.find_opt
      (function Liveness.Private_divergence _, _ -> true | _ -> false)
      r.witnesses
  with
  | Some (Liveness.Private_divergence { mid; _ }, Some w) ->
    check bool_t "cycle is the spinner's own steps" true
      (List.for_all (P_semantics.Mid.equal mid) w.Liveness.cycle_machines)
  | _ -> Alcotest.fail "expected a witnessed divergence"

let test_liveness_detects_divergence () =
  let r = Liveness.check (tab_of (self_spinner ~ghost:false)) in
  check bool_t "divergence found" true
    (List.exists
       (function Liveness.Private_divergence _ -> true | _ -> false)
       r.violations)

let test_liveness_ignores_ghost_divergence () =
  let r = Liveness.check (tab_of (self_spinner ~ghost:true)) in
  check int_t "ghost env may run forever" 0 (List.length r.violations);
  let r' =
    Liveness.check ~ignore_ghost_divergence:false (tab_of (self_spinner ~ghost:true))
  in
  check bool_t "unless asked otherwise" true (r'.violations <> [])

let test_liveness_elevator_clean () =
  let r = Liveness.check ~max_states:10_000 (tab_of (P_examples_lib.Elevator.program ())) in
  check int_t "elevator clean" 0 (List.length r.violations)

(* ---------------- verifier facade ---------------- *)

let test_verifier_report () =
  let report = Verifier.verify ~delay_bound:1 (P_examples_lib.Pingpong.program ()) in
  check bool_t "clean" true (Verifier.is_clean report);
  let report = Verifier.verify ~delay_bound:1 (P_examples_lib.Pingpong.buggy_program ()) in
  check bool_t "buggy rejected" false (Verifier.is_clean report)

let outcome_t =
  Alcotest.testable
    (fun ppf o ->
      Fmt.string ppf
        (match o with
        | Verifier.Clean -> "Clean"
        | Verifier.Failed -> "Failed"
        | Verifier.Inconclusive -> "Inconclusive"))
    ( = )

(* A search cut short by its state budget found no error but did not show
   there is none: the report says so and is not clean. *)
let test_verifier_outcome () =
  let elevator = P_examples_lib.Elevator.program () in
  let full = Verifier.verify ~delay_bound:1 elevator in
  check outcome_t "exhausted bound" Verifier.Clean (Verifier.outcome full);
  let cut = Verifier.verify ~delay_bound:1 ~max_states:50 elevator in
  check outcome_t "truncated" Verifier.Inconclusive (Verifier.outcome cut);
  check bool_t "truncated is not clean" false (Verifier.is_clean cut);
  let text = Fmt.str "%a" Verifier.pp_report cut in
  check bool_t "reported inconclusive" true
    (Astring_contains.contains text "safety: inconclusive (state budget exhausted)");
  check bool_t "never 'no error found'" false (Astring_contains.contains text "no error found");
  (* an error found within the budget is a failure, truncated or not *)
  let buggy =
    Verifier.verify ~delay_bound:1 ~max_states:50
      (P_examples_lib.Pingpong.buggy_program ())
  in
  check outcome_t "error" Verifier.Failed (Verifier.outcome buggy)

(* The same for a liveness graph cut short: no violating cycle among the
   states built does not show there is none. *)
let test_verifier_truncated_liveness () =
  let cut =
    Verifier.verify ~delay_bound:1 ~liveness:true ~liveness_max_states:100
      (P_examples_lib.Elevator.program ())
  in
  check bool_t "safety complete" false (Option.get cut.safety).stats.truncated;
  check bool_t "liveness graph truncated" false (Option.get cut.liveness).complete;
  check outcome_t "truncated liveness" Verifier.Inconclusive (Verifier.outcome cut);
  check bool_t "stats document not clean" true
    (P_obs.Json.member "clean" (Obs_report.json_of_report cut)
    = Some (P_obs.Json.Bool false));
  let text = Fmt.str "%a" Verifier.pp_report cut in
  check bool_t "safety still reported" true
    (Astring_contains.contains text "safety: no error found");
  check bool_t "liveness reported inconclusive" true
    (Astring_contains.contains text "(inconclusive: state budget exhausted)")

let test_verifier_static_rejection () =
  let p =
    P_parser.Parser.program_of_string
      "event e;\nmachine M { state S { entry { x := 1; } } }\nmain M();"
  in
  let report = Verifier.verify p in
  check bool_t "static errors reported" true (report.static_diagnostics <> []);
  check bool_t "no safety run" true (report.safety = None)

let suite =
  [ Alcotest.test_case "pingpong clean" `Quick test_pingpong_clean;
    Alcotest.test_case "pingpong bug found" `Quick test_pingpong_bug_found;
    Alcotest.test_case "states monotone in d" `Quick test_states_monotone_in_delay_bound;
    Alcotest.test_case "exploration deterministic" `Quick test_exploration_deterministic;
    Alcotest.test_case "bugs within d<=2" `Slow test_bugs_found_within_bound_2;
    Alcotest.test_case "benchmarks clean" `Slow test_good_benchmarks_clean_at_low_bounds;
    Alcotest.test_case "max_states truncates" `Quick test_max_states_truncates;
    Alcotest.test_case "counterexample trace" `Quick test_counterexample_trace_replay;
    Alcotest.test_case "d=0 matches simulator" `Quick test_d0_matches_simulator;
    Alcotest.test_case "depth-bounded finds bug" `Quick test_depth_bounded_finds_bug;
    Alcotest.test_case "depth-bounded explodes" `Slow test_depth_bounded_explodes_faster;
    Alcotest.test_case "depth bound 0" `Quick test_depth_bound_zero_is_initial_state_only;
    Alcotest.test_case "liveness terminating" `Quick test_liveness_clean_on_terminating;
    Alcotest.test_case "liveness starvation" `Quick test_liveness_detects_starvation;
    Alcotest.test_case "liveness witness lasso" `Quick test_liveness_witness_lasso;
    Alcotest.test_case "liveness witness divergence" `Quick test_liveness_witness_divergence;
    Alcotest.test_case "postpone suppresses" `Quick test_postpone_suppresses_starvation;
    Alcotest.test_case "liveness divergence" `Quick test_liveness_detects_divergence;
    Alcotest.test_case "ghost divergence ok" `Quick test_liveness_ignores_ghost_divergence;
    Alcotest.test_case "liveness elevator" `Slow test_liveness_elevator_clean;
    Alcotest.test_case "verifier report" `Quick test_verifier_report;
    Alcotest.test_case "verifier truncated is inconclusive" `Quick test_verifier_outcome;
    Alcotest.test_case "verifier truncated liveness is inconclusive" `Quick
      test_verifier_truncated_liveness;
    Alcotest.test_case "verifier static" `Quick test_verifier_static_rejection ]
