(* Property-based differential harness: ~200 seeded random P programs per
   runtest, each cross-checked three ways —

   - [Delay_bounded.explore] (the sequential reference) vs the
     work-stealing [Parallel.explore] at domains=1 and domains=N: verdicts
     and state counts must agree, the parallel transition counts must be
     identical to each other and at most the sequential one, and any
     parallel counterexample must be byte-identical to the sequential
     engine's (the deterministic re-derivation contract);
   - any counterexample's schedule through [Differential.run]: the
     checker's interpreter and the compiled table-driven runtime must fail
     in the same atomic block.

   Programs come from [Test_properties.gen_program_with] in four seeded
   families: {ghost-free, ghost-bearing} x {clean-by-construction,
   possibly-failing asserts} — the risky families are what exercises the
   counterexample paths. Every failure message leads with the program's
   seed; rerunning the harness reproduces it exactly (generation is keyed
   on the seed alone).

   N defaults to 4 and is overridden by PCAML_TEST_DOMAINS — the CI matrix
   runs the suite at 1 and 4.

   PCAML_TEST_STORE=compact adds a second axis over the seen-set
   representation: all three explorations re-run with the off-heap
   fingerprint store and must give (verdict, states, transitions) triples
   and counterexample schedules *byte-identical* to the exact store's —
   hash compaction must be a pure representation change at these sizes
   (the 47-bit tag birthday bound at 4000 states is ~6e-8).

   PCAML_TEST_SCHED=effects adds a third axis over the runtime driver:
   every generated program additionally runs under both the historical
   nested run-to-completion driver and the Causal policy of the Sched
   driver (the axis keeps its historical name),
   which must produce byte-identical observable traces (machine-visible
   event orders) and identical error outcomes.

   PCAML_TEST_REDUCE=por adds a fourth axis over the state-space
   reduction: the sequential and parallel explorations re-run with
   sleep-set POR on and must report the same verdict kind as the
   unreduced reference, never more states (a pruned successor is never
   claimed), agree with each other exactly, and produce counterexamples
   that still replay through the compiled runtime. *)

open P_checker

let programs_per_family = 50
let base_seed = 0x5eed

(* The parallel engine's second domain count (the first is always 1). *)
let domains_under_test =
  match Option.bind (Sys.getenv_opt "PCAML_TEST_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 && n <= 128 -> n
  | Some _ | None -> 4

(* The seen-set representation under differential test (the exact store
   always runs as the reference). *)
let store_under_test =
  match Sys.getenv_opt "PCAML_TEST_STORE" with
  | None | Some "" -> State_store.Exact
  | Some s -> (
    match State_store.kind_of_string s with
    | Ok k -> k
    | Error e -> failwith ("PCAML_TEST_STORE: " ^ e))

(* The runtime-driver axis: nested threads driver vs the Causal Sched
   driver. Off by default (the default runtest already exercises the
   nested driver through Differential); CI enables it explicitly. *)
let sched_effects_under_test =
  match Sys.getenv_opt "PCAML_TEST_SCHED" with
  | Some "effects" -> true
  | Some _ | None -> false

(* The reduction axis: [none] is always the reference run; any other mode
   re-runs the explorations reduced and compares. *)
let reduce_under_test =
  match Sys.getenv_opt "PCAML_TEST_REDUCE" with
  | None | Some "" -> None
  | Some s -> (
    match Reduce.of_string s with
    | Ok r when Reduce.is_none r -> None
    | Ok r -> Some r
    | Error e -> failwith ("PCAML_TEST_REDUCE: " ^ e))

(* The fault-injection axis: every generated program re-explores under a
   seeded random fault plan, and the determinism contract must hold —
   repeated runs bit-identical, domain-count invariant, counterexamples
   replayable through the compiled runtime under the same plan. *)
let faults_under_test =
  match Sys.getenv_opt "PCAML_TEST_FAULTS" with
  | None | Some "" | Some "0" | Some "none" -> false
  | Some _ -> true

let gen_one ~ghost ~risky seed : P_syntax.Ast.program =
  let rand =
    Random.State.make
      [| base_seed; seed; (if ghost then 1 else 0); (if risky then 1 else 0) |]
  in
  QCheck2.Gen.generate1 ~rand (Test_properties.gen_program_with ~ghost ~risky ())

let failf seed fmt = Alcotest.failf ("seed %d: " ^^ fmt) seed

let verdict_kind (r : Search.result) =
  match r.verdict with Search.Error_found _ -> "error" | Search.No_error -> "clean"

let ce_of (r : Search.result) =
  match r.verdict with Search.Error_found ce -> Some ce | Search.No_error -> None

(* Run a compiled program under one of the two runtime drivers, collecting
   the raw trace (stricter than [Trace.observable]: both drivers emit at
   the same points, so internal items must line up too). The cutoff bounds
   programs that circulate forever; both drivers abort at the same item
   when their schedules agree. *)
type run_outcome = Run_completed | Run_cutoff | Run_failed of string

let runtime_trace_cutoff = 10_000

let runtime_run ~effects driver main =
  let exception Enough in
  let items = ref [] in
  let count = ref 0 in
  let hook it =
    items := it :: !items;
    incr count;
    if !count > runtime_trace_cutoff then raise Enough
  in
  let rt, create_machine =
    if effects then
      let s = P_runtime.Sched.create ~policy:P_runtime.Sched.Causal driver in
      ( P_runtime.Sched.exec s,
        fun m -> ignore (P_runtime.Sched.create_machine s m : int) )
    else
      let rt = P_runtime.Api.create driver in
      (rt, fun m -> ignore (P_runtime.Api.create_machine rt m : int))
  in
  P_runtime.Api.set_trace_hook rt (Some hook);
  let outcome =
    match create_machine main with
    | () -> Run_completed
    | exception Enough -> Run_cutoff
    | exception P_runtime.Exec.Runtime_error m -> Run_failed m
  in
  (outcome, List.rev !items)

let outcome_str = function
  | Run_completed -> "completed"
  | Run_cutoff -> "cutoff"
  | Run_failed m -> "error: " ^ m

let pp_item = P_semantics.Trace.pp_item

let check_sched_axis seed (p : P_syntax.Ast.program) =
  let driver = (P_compile.Compile.compile p).P_compile.Compile.driver in
  let main = P_syntax.Names.Machine.to_string p.main in
  let t_out, t_items = runtime_run ~effects:false driver main in
  let e_out, e_items = runtime_run ~effects:true driver main in
  if outcome_str t_out <> outcome_str e_out then
    failf seed "sched axis: threads outcome %S <> effects outcome %S"
      (outcome_str t_out) (outcome_str e_out);
  if t_items <> e_items then begin
    let rec first i = function
      | [], [] -> failf seed "sched axis: traces differ (unlocated)"
      | a :: _, [] -> failf seed "sched axis: item %d %a only under threads" i pp_item a
      | [], b :: _ -> failf seed "sched axis: item %d %a only under effects" i pp_item b
      | a :: ta, b :: tb ->
        if a <> b then
          failf seed "sched axis: item %d: threads %a <> effects %a" i pp_item a pp_item b
        else first (Stdlib.( + ) i 1) (ta, tb)
    in
    first 0 (t_items, e_items)
  end

let check_reduce_axis seed tab (seq : Search.result) reduce =
  let red = Delay_bounded.explore ~delay_bound:1 ~max_states:4_000 ~reduce tab in
  let redp =
    Parallel.explore ~domains:domains_under_test ~delay_bound:1
      ~max_states:4_000 ~reduce tab
  in
  if verdict_kind red <> verdict_kind seq then
    failf seed "reduce %a: verdict %s <> unreduced %s" Reduce.pp reduce
      (verdict_kind red) (verdict_kind seq);
  if verdict_kind redp <> verdict_kind red then
    failf seed "reduce %a: parallel verdict %s <> sequential %s" Reduce.pp
      reduce (verdict_kind redp) (verdict_kind red);
  if red.stats.states <> redp.stats.states then
    failf seed "reduce %a: parallel states %d <> sequential %d" Reduce.pp
      reduce redp.stats.states red.stats.states;
  if not (seq.stats.truncated || red.stats.truncated) then begin
    if red.stats.states > seq.stats.states then
      failf seed "reduce %a explored %d states, unreduced only %d" Reduce.pp
        reduce red.stats.states seq.stats.states
  end;
  match ce_of red with
  | None -> ()
  | Some ce -> (
    match ce.error.kind with
    | P_semantics.Errors.Livelock | P_semantics.Errors.Fuel_exhausted -> ()
    | _ -> (
      match Differential.run tab ce.schedule with
      | Error e -> failf seed "reduce %a: differential setup failed: %s" Reduce.pp reduce e
      | Ok (Differential.Agree { verdict = Differential.Agree_error _; _ }) -> ()
      | Ok o ->
        failf seed "reduce %a: counterexample replay: %a" Reduce.pp reduce
          Differential.pp_outcome o))

(* The seeded fault-schedule generator: a random plan whose rates and
   fault seed are a pure function of the program seed, so a failing seed
   reproduces the whole (program, plan) pair. *)
let gen_fault_plan seed =
  let rand = Random.State.make [| base_seed; seed; 0xFA17 |] in
  let rate bound = Random.State.int rand bound in
  P_semantics.Fault.with_seed
    (Random.State.int rand 1_000_000)
    { P_semantics.Fault.none with
      drop = rate 250;
      dup = rate 250;
      reorder = rate 250;
      delay = rate 150;
      crash = rate 80 }

let check_faults_axis seed tab =
  let faults = gen_fault_plan seed in
  let max_states = 4_000 in
  let digest (r : Search.result) =
    (verdict_kind r, r.stats.states, r.stats.transitions, r.stats.faults)
  in
  let f1 = Delay_bounded.explore ~delay_bound:1 ~max_states ~faults tab in
  let f2 = Delay_bounded.explore ~delay_bound:1 ~max_states ~faults tab in
  if digest f1 <> digest f2 then
    failf seed "fault axis: repeated fault-injected search diverged";
  let fp =
    Parallel.explore ~domains:domains_under_test ~delay_bound:1 ~max_states
      ~faults tab
  in
  if verdict_kind fp <> verdict_kind f1 then
    failf seed "fault axis: parallel(%d) verdict %s <> sequential %s"
      domains_under_test (verdict_kind fp) (verdict_kind f1);
  if not (f1.stats.truncated || fp.stats.truncated) then begin
    if fp.stats.states <> f1.stats.states then
      failf seed "fault axis: parallel(%d) states %d <> sequential %d"
        domains_under_test fp.stats.states f1.stats.states;
    match (ce_of f1, ce_of fp) with
    | Some sce, Some pce ->
      if pce.schedule <> sce.schedule then
        failf seed "fault axis: parallel(%d) ce schedule differs from sequential"
          domains_under_test
    | None, None -> ()
    | _ -> ()
  end;
  match ce_of f1 with
  | None -> ()
  | Some ce -> (
    match ce.error.kind with
    | P_semantics.Errors.Livelock | P_semantics.Errors.Fuel_exhausted -> ()
    | _ -> (
      match Differential.run ~faults tab ce.schedule with
      | Error e -> failf seed "fault axis: differential setup failed: %s" e
      | Ok (Differential.Agree { verdict = Differential.Agree_error _; _ }) -> ()
      | Ok o ->
        failf seed "fault axis: counterexample replay: %a" Differential.pp_outcome
          o))

let check_generated seed (p : P_syntax.Ast.program) =
  let tab =
    match P_static.Check.run p with
    | { diagnostics = []; symtab } -> symtab
    | { diagnostics; _ } ->
      failf seed "generated program not statically clean: %a"
        P_static.Check.pp_diagnostics diagnostics
  in
  if sched_effects_under_test then check_sched_axis seed p;
  let max_states = 4_000 in
  let seq = Delay_bounded.explore ~delay_bound:1 ~max_states tab in
  let par1 = Parallel.explore ~domains:1 ~delay_bound:1 ~max_states tab in
  let parn =
    Parallel.explore ~domains:domains_under_test ~delay_bound:1 ~max_states tab
  in
  (* truncated runs are excluded from the count comparisons: the engines
     check the budget at different granularities (documented) *)
  if
    not
      (seq.stats.truncated || par1.stats.truncated || parn.stats.truncated)
  then begin
    if seq.stats.states <> par1.stats.states then
      failf seed "states: sequential %d <> parallel(1) %d" seq.stats.states
        par1.stats.states;
    if par1.stats.states <> parn.stats.states then
      failf seed "states: parallel(1) %d <> parallel(%d) %d" par1.stats.states
        domains_under_test parn.stats.states;
    if par1.stats.transitions <> parn.stats.transitions then
      failf seed "transitions: parallel(1) %d <> parallel(%d) %d"
        par1.stats.transitions domains_under_test parn.stats.transitions;
    if parn.stats.transitions > seq.stats.transitions then
      failf seed "transitions: parallel %d > sequential %d"
        parn.stats.transitions seq.stats.transitions;
    if verdict_kind seq <> verdict_kind par1 || verdict_kind par1 <> verdict_kind parn
    then
      failf seed "verdicts disagree: seq=%s par1=%s par%d=%s" (verdict_kind seq)
        (verdict_kind par1) domains_under_test (verdict_kind parn);
    match (ce_of seq, ce_of par1, ce_of parn) with
    | Some sce, Some ce1, Some cen ->
      (* parallel counterexamples are re-derived sequentially: identical to
         the sequential engine's at every domain count *)
      List.iter
        (fun (d, (ce : Search.counterexample)) ->
          if ce.depth <> sce.depth then
            failf seed "parallel(%d) ce depth %d <> sequential %d" d ce.depth
              sce.depth;
          if ce.error <> sce.error then
            failf seed "parallel(%d) ce error differs from sequential" d;
          if ce.schedule <> sce.schedule then
            failf seed "parallel(%d) ce schedule differs from sequential" d)
        [ (1, ce1); (domains_under_test, cen) ];
      (* interpreter vs compiled runtime on the failing schedule — except
         for livelock/fuel errors, which only the interpreter's cycle
         detector can produce: the table-driven runtime would execute the
         detected cycle of private operations forever *)
      (match sce.error.kind with
      | P_semantics.Errors.Livelock | P_semantics.Errors.Fuel_exhausted -> ()
      | _ -> (
        match Differential.run tab sce.schedule with
        | Error e -> failf seed "differential setup failed: %s" e
        | Ok (Differential.Agree { verdict = Differential.Agree_error _; _ }) -> ()
        | Ok o -> failf seed "differential replay: %a" Differential.pp_outcome o))
    | None, None, None -> ()
    | _ -> () (* verdict kinds already compared above *)
  end;
  if faults_under_test then check_faults_axis seed tab;
  (match reduce_under_test with
  | None -> ()
  | Some reduce -> check_reduce_axis seed tab seq reduce);
  match store_under_test with
  | State_store.Exact -> ()
  | State_store.Compact ->
    (* hash compaction is a representation change only: every driver must
       reproduce its exact-store run byte for byte *)
    let cseq =
      Delay_bounded.explore ~store:State_store.Compact ~delay_bound:1 ~max_states
        tab
    in
    let cpar1 =
      Parallel.explore ~store:State_store.Compact ~domains:1 ~delay_bound:1
        ~max_states tab
    in
    let cparn =
      Parallel.explore ~store:State_store.Compact ~domains:domains_under_test
        ~delay_bound:1 ~max_states tab
    in
    List.iter
      (fun (driver, (exact : Search.result), (compact : Search.result)) ->
        if exact.stats.truncated <> compact.stats.truncated then
          failf seed "%s: compact truncated %b <> exact %b" driver
            compact.stats.truncated exact.stats.truncated;
        if not (exact.stats.truncated || compact.stats.truncated) then begin
          if compact.stats.states <> exact.stats.states then
            failf seed "%s: compact states %d <> exact %d" driver
              compact.stats.states exact.stats.states;
          if compact.stats.transitions <> exact.stats.transitions then
            failf seed "%s: compact transitions %d <> exact %d" driver
              compact.stats.transitions exact.stats.transitions
        end;
        if verdict_kind exact <> verdict_kind compact then
          failf seed "%s: compact verdict %s <> exact %s" driver
            (verdict_kind compact) (verdict_kind exact);
        match (ce_of exact, ce_of compact) with
        | Some e, Some c ->
          if c.depth <> e.depth then
            failf seed "%s: compact ce depth %d <> exact %d" driver c.depth
              e.depth;
          if c.error <> e.error then
            failf seed "%s: compact ce error differs from exact" driver;
          if c.schedule <> e.schedule then
            failf seed "%s: compact ce schedule differs from exact" driver
        | None, None -> ()
        | _ -> ())
      [ ("sequential", seq, cseq);
        ("parallel(1)", par1, cpar1);
        (Fmt.str "parallel(%d)" domains_under_test, parn, cparn) ]

let check_program ~ghost ~risky seed = check_generated seed (gen_one ~ghost ~risky seed)

let family_case name ~ghost ~risky first_seed =
  Alcotest.test_case name `Quick (fun () ->
      for i = 0 to programs_per_family - 1 do
        check_program ~ghost ~risky (first_seed + i)
      done)

(* The multi-machine topology families: seeded rings and supervision
   chains (with restart handlers) from [Test_properties], run through the
   same differential gauntlet — these are the programs whose cross-machine
   traffic the fault axis has something to bite on. *)
let topology_programs = 20

let gen_topology gen ~risky ~tag seed : P_syntax.Ast.program =
  let rand =
    Random.State.make [| base_seed; seed; tag; (if risky then 1 else 0) |]
  in
  QCheck2.Gen.generate1 ~rand ((gen ?risky:(Some risky) () : _ QCheck2.Gen.t))

let topology_case name gen ~risky ~tag first_seed =
  Alcotest.test_case name `Quick (fun () ->
      for i = 0 to topology_programs - 1 do
        let seed = first_seed + i in
        check_generated seed (gen_topology gen ~risky ~tag seed)
      done)

let suite =
  [ family_case "ghost-free clean" ~ghost:false ~risky:false 1_000;
    family_case "ghost-free risky" ~ghost:false ~risky:true 2_000;
    family_case "ghost-bearing clean" ~ghost:true ~risky:false 3_000;
    family_case "ghost-bearing risky" ~ghost:true ~risky:true 4_000;
    topology_case "token rings clean" Test_properties.gen_ring_program
      ~risky:false ~tag:0x21 5_000;
    topology_case "token rings risky" Test_properties.gen_ring_program
      ~risky:true ~tag:0x21 6_000;
    topology_case "spawn chains clean" Test_properties.gen_spawn_chain_program
      ~risky:false ~tag:0x22 7_000;
    topology_case "spawn chains risky" Test_properties.gen_spawn_chain_program
      ~risky:true ~tag:0x22 8_000 ]
