(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md, and a Bechamel
   micro-benchmark suite for the engine primitives.

   Usage:  dune exec bench/main.exe            (all experiments, bounded)
           dune exec bench/main.exe -- fig7    (Figure 7 sweep)
           dune exec bench/main.exe -- bugs    (bug-finding at low delay bounds)
           dune exec bench/main.exe -- fig8    (Figure 8 table + per-store deep run;
                                                --smoke shrinks the budgets)
           dune exec bench/main.exe -- overhead (section 4.1 comparison)
           dune exec bench/main.exe -- ablation (design-choice ablations)
           dune exec bench/main.exe -- reduce  (state-space reduction: sleep-set
                                                POR across the example
                                                suite and the USB stack; --smoke
                                                shrinks the budgets)
           dune exec bench/main.exe -- faults  (adversarial host: fault-injected
                                                verdicts/states per protocol
                                                family x fault class, plus the
                                                serving runtime's injection
                                                counters; --smoke shrinks the
                                                budgets)
           dune exec bench/main.exe -- protocol-scaling
                                               (German's directory with n clients)
           dune exec bench/main.exe -- micro   (Bechamel micro-benchmarks)
           dune exec bench/main.exe -- smoke   (every recorded table at tiny budgets)
           dune exec bench/main.exe -- compare OLD.json NEW.json
                                               (exact regression gate)
   Every subcommand takes [--json FILE] to write its numbers as one
   p-bench/1 document.

   Absolute numbers will differ from the paper's 2013 testbed (Zing on a
   multicore Windows box, hours-long runs); the *shape* of each result is
   the reproduction target. The gated columns — state and transition
   counts, verdicts, bug depths — are deterministic and machine
   independent; wall-clock columns are printed for orientation only, and
   repeated, spread-reporting timing is perfbench's job. Budgets are sized
   so the default run finishes in a few minutes. *)

open P_checker
module Json = P_obs.Json

let line fmt = Fmt.pr (fmt ^^ "@.")

(* A broken contract: reported on stderr, and the run exits 1 at the end. *)
let failed = ref false

let fail fmt =
  failed := true;
  Fmt.epr ("FAIL: " ^^ fmt ^^ "@.")
let hr () = line "%s" (String.make 78 '-')

let tab_of p = P_static.Check.run_exn p

(* Every experiment records its numbers here; [--json FILE] writes them all
   as one document (bench/fixtures/smoke-baseline.json is one, from the
   [smoke] subcommand). *)
let results : (string * Json.t) list ref = ref []

let record key json = results := (key, json) :: !results

let write_results path =
  let doc =
    Json.Obj
      [ ("schema", Json.String "p-bench/1");
        (* the machine the wall-clock columns were measured on *)
        ("machine", P_obs.Machine_info.json ());
        ("results", Json.Obj (List.rev !results)) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n')

let json_of_stats (s : Search.stats) : Json.t =
  Json.Obj
    [ ("states", Json.Int s.states);
      ("transitions", Json.Int s.transitions);
      ("max_depth", Json.Int s.max_depth);
      ("truncated", Json.Bool s.truncated);
      ("elapsed_s", Json.Float s.elapsed_s) ]

(* "+" after a state count marks a run the budget cut short *)
let trunc_mark (s : Search.stats) = if s.truncated then "+" else " "

(* The least delay bound d <= [upto] at which [explore d] reports an error:
   that bound, the run and its counterexample. *)
let rec first_error ?(d = 0) ~upto explore =
  if d > upto then None
  else
    let r : Search.result = explore d in
    match r.verdict with
    | Search.Error_found ce -> Some (d, r, ce)
    | Search.No_error -> first_error ~d:(d + 1) ~upto explore

(* ------------------------------------------------------------------ *)
(* Figure 7: states explored with increasing delay bound               *)
(* ------------------------------------------------------------------ *)

let fig7_benchmarks () =
  [ ("Elevator", tab_of (P_examples_lib.Elevator.program ()));
    ("Switch-LED", tab_of (P_examples_lib.Switch_led.program ()));
    ("German", tab_of (P_examples_lib.German.program ())) ]

let fig7 ?(max_states = 400_000) ?(bounds = [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12 ]) () =
  line "== Figure 7: states explored vs delay bound ==";
  line "   (paper: states grow with d and saturate; its plot scales Elevator x100";
  line "    and Switch-LED x10 for legibility — raw counts below)";
  let benchmarks = fig7_benchmarks () in
  line "%-12s %s" "d"
    (String.concat " " (List.map (fun (n, _) -> Fmt.str "%14s" n) benchmarks));
  let rows = ref [] in
  List.iter
    (fun d ->
      let cells =
        List.map
          (fun (name, tab) ->
            let r = Delay_bounded.explore ~delay_bound:d ~max_states tab in
            rows :=
              Json.Obj
                [ ("benchmark", Json.String name);
                  ("delay_bound", Json.Int d);
                  ("stats", json_of_stats r.stats) ]
              :: !rows;
            Fmt.str "%13d%s" r.stats.states (trunc_mark r.stats))
          benchmarks
      in
      line "%-12d %s" d (String.concat " " cells))
    bounds;
  line "(+ marks exploration truncated at the %d-state budget)" max_states;
  record "fig7" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* Bug finding at low delay bounds (section 5, empirical results)      *)
(* ------------------------------------------------------------------ *)

let bugs () =
  line "== Seeded bugs: smallest delay bound that finds each ==";
  line "   (paper: \"bugs are found within a delay bound of 2\")";
  line "%-14s %-8s %-10s %-8s %s" "benchmark" "found@d" "states" "depth" "error";
  let rows = ref [] in
  List.iter
    (fun (name, p) ->
      let tab = tab_of p in
      let explore d = Delay_bounded.explore ~delay_bound:d ~max_states:500_000 tab in
      let row =
        match first_error ~upto:4 explore with
        | None ->
          line "%-14s NOT FOUND within d<=4" name;
          [ ("benchmark", Json.String name); ("found_at", Json.Null) ]
        | Some (d, r, ce) ->
          line "%-14s %-8d %-10d %-8d %a" name d r.stats.states ce.depth
            P_semantics.Errors.pp_kind ce.error.kind;
          [ ("benchmark", Json.String name);
            ("found_at", Json.Int d);
            ("depth", Json.Int ce.depth);
            ("error", Json.String (Fmt.str "%a" P_semantics.Errors.pp_kind ce.error.kind));
            ("stats", json_of_stats r.stats) ]
      in
      rows := Json.Obj row :: !rows)
    [ ("elevator", P_examples_lib.Elevator.buggy_program ());
      ("switch-led", P_examples_lib.Switch_led.buggy_program ());
      ("german", P_examples_lib.German.buggy_program ());
      ("pingpong", P_examples_lib.Pingpong.buggy_program ());
      ("tokenring", P_examples_lib.Token_ring.buggy_program ());
      ("boundedbuffer", P_examples_lib.Bounded_buffer.buggy_program ());
      ("usb-stack", P_usb.Stack.buggy_program ()) ];
  record "bugs" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* Figure 8: the USB case-study machines                               *)
(* ------------------------------------------------------------------ *)

let fig8 ?(max_states = 250_000) ?(delay_bound = 1) () =
  line "== Figure 8: state machine sizes and exploration ==";
  line
    "   (paper, hours-scale: HSM 196/361 -> 5.9M states; PSM3.0 295/752 -> 1.5M;";
  line
    "    PSM2.0 457/1386 -> 2.2M; DSM 1919/4238 -> 1.2M; ours uses a %d-state"
    max_states;
  line "    budget per machine and reports throughput for extrapolation)";
  line "%-8s %8s %13s %10s %10s %10s %12s" "machine" "P states" "P transitions"
    "explored" "time(s)" "alloc MB" "states/s";
  let rows = ref [] in
  List.iter
    (fun spec ->
      let p = P_usb.Gen.program_of_spec spec in
      let m =
        List.find (fun (m : P_syntax.Ast.machine) -> not m.machine_ghost) p.machines
      in
      let tab = tab_of p in
      Gc.compact ();
      let before = Gc.stat () in
      let r = Delay_bounded.explore ~delay_bound ~max_states tab in
      let after = Gc.stat () in
      (* allocation volume over the run: the paper reports resident memory of
         hours-long Zing runs; allocation tracks the same growth per state *)
      let heap_mb =
        (after.Gc.minor_words +. after.Gc.major_words -. after.Gc.promoted_words
        -. (before.Gc.minor_words +. before.Gc.major_words -. before.Gc.promoted_words))
        *. float_of_int (Sys.word_size / 8)
        /. 1e6
      in
      line "%-8s %8d %13d %9d%s %10.2f %10.1f %12.0f" spec.P_usb.Gen.name
        (P_syntax.Ast.machine_state_count m)
        (P_syntax.Ast.machine_transition_count m)
        r.stats.states (trunc_mark r.stats) r.stats.elapsed_s heap_mb
        (float_of_int r.stats.states /. r.stats.elapsed_s);
      rows :=
        Json.Obj
          [ ("machine", Json.String spec.P_usb.Gen.name);
            ("p_states", Json.Int (P_syntax.Ast.machine_state_count m));
            ("p_transitions", Json.Int (P_syntax.Ast.machine_transition_count m));
            ("alloc_mb", Json.Float heap_mb);
            ("stats", json_of_stats r.stats) ]
        :: !rows)
    P_usb.Gen.all_specs;
  line
    "(+ = budget hit: the space is larger, like the paper's millions; multiply\n\
    \ states/s by the paper's runtimes to compare scale)";
  record "fig8" (Json.List (List.rev !rows))

(* Figure 8, continued: one paper-scale exploration of the USB stack per
   state store. The paper's table reaches millions of states on an
   hours-scale testbed; the compact store holds a run of that class in a
   flat off-heap fingerprint arena (no per-state heap allocation, several
   times fewer bytes per state than the exact hashtable). [compare] gates
   each row's counts, which both stores must agree on; the measured
   footprint (store MB, bytes per state) is recorded for reading, not
   gated. *)
let fig8_stores ?(max_states = 1_050_000) ?(delay_bound = 1) () =
  line "== Figure 8 (deep): USB stack, one run per state store ==";
  line "   (d=%d, %d-state budget; 'vs exact' is the bytes-per-state reduction"
    delay_bound max_states;
  line "    relative to the exact store's hashtable footprint)";
  let tab = tab_of (P_usb.Stack.program ()) in
  line "%-9s %9s %12s %8s %10s %9s %8s %9s" "store" "explored" "transitions"
    "time(s)" "states/s" "store MB" "B/state" "vs exact";
  let exact_bps = ref 0.0 in
  let rows = ref [] in
  List.iter
    (fun store ->
      let r = Delay_bounded.explore ~store ~delay_bound ~max_states tab in
      let st =
        match r.stats.store with
        | Some st -> st
        | None -> Fmt.failwith "run carries no store summary"
      in
      let bps =
        if r.stats.states = 0 then 0.0
        else float_of_int st.State_store.s_bytes /. float_of_int r.stats.states
      in
      if store = State_store.Exact then exact_bps := bps;
      let reduction =
        if bps > 0.0 && !exact_bps > 0.0 then !exact_bps /. bps else 0.0
      in
      line "%-9s %8d%s %12d %8.2f %10.0f %9.1f %8.1f %9s"
        (State_store.kind_to_string store)
        r.stats.states (trunc_mark r.stats) r.stats.transitions r.stats.elapsed_s
        (float_of_int r.stats.states /. r.stats.elapsed_s)
        (float_of_int st.State_store.s_bytes /. 1e6)
        bps
        (if reduction > 0.0 && store <> State_store.Exact then
           Fmt.str "%.1fx" reduction
         else "-");
      rows :=
        Json.Obj
          ([ ("store", Json.String (State_store.kind_to_string store));
             ("stats", json_of_stats r.stats);
             ( "store_mb",
               Json.Float (float_of_int st.State_store.s_bytes /. 1e6) );
             ("bytes_per_state", Json.Float bps);
             ("occupancy", Json.Float st.State_store.s_occupancy);
             ("omission_bound", Json.Float st.State_store.s_omission_bound) ]
          @
          if reduction > 0.0 && store <> State_store.Exact then
            [ ("reduction_vs_exact", Json.Float reduction) ]
          else [])
        :: !rows)
    [ State_store.Exact; State_store.Compact ];
  record "fig8_store" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* Section 4.1: generated-driver efficiency                            *)
(* ------------------------------------------------------------------ *)

let overhead ?(events = 2_000) () =
  line "== Section 4.1: P-generated vs hand-written switch-LED driver ==";
  line "   (paper: both process 100 events/s at ~4 ms/event, i.e. the P runtime";
  line "    adds no overhead to device-bound work; we measure the dispatch cost";
  line "    itself, and against a simulated 4 ms device budget)";
  let make_event i = P_host.Os_events.Interrupt { line = "switch"; data = i mod 2 } in
  let rows = ref [] in
  let run name driver (device : P_examples_lib.Switch_led.device) =
    let stats = P_host.Workload.run ~rate_hz:100 ~events ~make_event driver in
    let budget_ns = 4e6 (* the paper's 4 ms/event processing time *) in
    line "%-22s %a" name P_host.Workload.pp_stats stats;
    line "%-22s -> %.5f%% of a 4 ms device-bound event" ""
      (100.0 *. stats.mean_ns /. budget_ns);
    rows :=
      Json.Obj
        [ ("driver", Json.String name);
          ("events", Json.Int stats.events);
          ("mean_ns", Json.Float stats.mean_ns);
          ("p99_ns", Json.Float stats.p99_ns);
          ("max_ns", Json.Float stats.max_ns);
          ("budget_fraction", Json.Float (stats.mean_ns /. budget_ns)) ]
      :: !rows;
    device.writes
  in
  let dev_p = P_examples_lib.Switch_led.new_device () in
  let writes_p = run "P-generated driver" (P_examples_lib.Switch_led.p_driver dev_p) dev_p in
  let dev_h = P_examples_lib.Switch_led.new_device () in
  let writes_h =
    run "hand-written driver" (P_examples_lib.Switch_led.handwritten_driver dev_h) dev_h
  in
  line "device writes: P=%d hand=%d (identical behaviour: %b)" writes_p writes_h
    (writes_p = writes_h);
  line "code size: P source %d machine states vs ~6000 lines of raw KMDF C in the paper"
    (P_syntax.Ast.program_state_count (P_examples_lib.Switch_led.program ()));
  record "overhead"
    (Json.Obj
       [ ("drivers", Json.List (List.rev !rows));
         ("writes_p", Json.Int writes_p);
         ("writes_hand", Json.Int writes_h);
         ("identical", Json.Bool (writes_p = writes_h)) ])

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablation ?(max_states = 150_000) () =
  line "== Ablation 1: delay bounding vs depth bounding ==";
  line "   (paper section 1: depth-bounded search blows up with execution depth;";
  line "    delay bounding reaches deep executions cheaply)";
  let ab1 = ref [] in
  let ab1_row name stats =
    ab1 :=
      Json.Obj [ ("search", Json.String name); ("stats", json_of_stats stats) ]
      :: !ab1
  in
  let tab = tab_of (P_examples_lib.German.program ()) in
  line "%-28s %10s %10s %10s" "search" "states" "max depth" "time(s)";
  let d0 = Delay_bounded.explore ~delay_bound:0 ~max_states tab in
  line "%-28s %10d %10d %10.2f" "delay-bounded d=0" d0.stats.states d0.stats.max_depth
    d0.stats.elapsed_s;
  ab1_row "delay-bounded d=0" d0.stats;
  let d2 = Delay_bounded.explore ~delay_bound:2 ~max_states tab in
  line "%-28s %9d%s %10d %10.2f" "delay-bounded d=2" d2.stats.states
    (trunc_mark d2.stats) d2.stats.max_depth d2.stats.elapsed_s;
  ab1_row "delay-bounded d=2" d2.stats;
  List.iter
    (fun k ->
      let r = Depth_bounded.explore ~depth_bound:k ~max_states tab in
      line "%-28s %9d%s %10d %10.2f"
        (Fmt.str "depth-bounded k=%d" k)
        r.stats.states (trunc_mark r.stats) r.stats.max_depth r.stats.elapsed_s;
      ab1_row (Fmt.str "depth-bounded k=%d" k) r.stats)
    [ 10; 14; 18 ];
  line "-> at equal budgets, depth bounding exhausts the budget at a fraction of";
  line "   the execution depth that d=0 reaches for free";
  hr ();
  line "== Ablation 2: causal vs round-robin delaying scheduler ==";
  let ab2 = ref [] in
  let tab_b = tab_of (P_examples_lib.Elevator.buggy_program ()) in
  line "%-28s %12s %12s" "scheduler" "bug@d" "states";
  List.iter
    (fun (name, discipline) ->
      let explore d =
        Delay_bounded.explore ~discipline ~delay_bound:d ~max_states:500_000 tab_b
      in
      let row =
        match first_error ~upto:6 explore with
        | None ->
          line "%-28s %12s %12s" name "none<=6" "-";
          [ ("scheduler", Json.String name); ("found_at", Json.Null) ]
        | Some (d, r, _) ->
          line "%-28s %12d %12d" name d r.stats.states;
          [ ("scheduler", Json.String name);
            ("found_at", Json.Int d);
            ("states", Json.Int r.stats.states) ]
      in
      ab2 := Json.Obj row :: !ab2)
    [ ("causal (paper)", Delay_bounded.Causal);
      ("round-robin (Emmi et al.)", Delay_bounded.Round_robin) ];
  hr ();
  line "== Ablation 3: the deduplicating queue append (the ⊕ operator) ==";
  let ab3 = ref [] in
  let tab_e = tab_of (P_examples_lib.Elevator.program ()) in
  List.iter
    (fun (name, dedup) ->
      let r = Delay_bounded.explore ~dedup ~delay_bound:1 ~max_states tab_e in
      line "%-28s %9d%s states, %d transitions, closure: %b" name r.stats.states
        (trunc_mark r.stats) r.stats.transitions (not r.stats.truncated);
      ab3 :=
        Json.Obj
          [ ("append", Json.String name);
            ("closes", Json.Bool (not r.stats.truncated));
            ("stats", json_of_stats r.stats) ]
        :: !ab3)
    [ ("with (+) dedup (paper)", true); ("plain FIFO append", false) ];
  line "-> without the dedup append the ghost user floods the elevator queue: the";
  line "   state space never closes (the paper motivates it with hardware events)";
  hr ();
  line "== Ablation 4: systematic (delay-bounded) vs random-walk testing ==";
  line "%-16s %-28s %s" "benchmark" "delay-bounded (d<=2)" "random walks (100 x 500 blocks)";
  let ab4 = ref [] in
  List.iter
    (fun (name, p) ->
      let tab = tab_of p in
      let explore d = Delay_bounded.explore ~delay_bound:d ~max_states:500_000 tab in
      let sys_msg, sys_blocks =
        match first_error ~upto:2 explore with
        | None -> ("not found", 0)
        | Some (d, r, _) -> (Fmt.str "found@@d=%d" d, r.stats.transitions)
      in
      let rw = Random_walk.run ~walks:100 ~max_blocks:500 ~seed:11 tab in
      line "%-16s %-12s %5d blocks     %d/100 walks failing, %d blocks" name sys_msg
        sys_blocks rw.errors_found rw.total_blocks;
      ab4 :=
        Json.Obj
          [ ("benchmark", Json.String name);
            ("systematic", Json.String sys_msg);
            ("systematic_blocks", Json.Int sys_blocks);
            ("random_failing_walks", Json.Int rw.errors_found);
            ("random_blocks", Json.Int rw.total_blocks) ]
        :: !ab4)
    [ ("elevator", P_examples_lib.Elevator.buggy_program ());
      ("german", P_examples_lib.German.buggy_program ());
      ("usb-stack", P_usb.Stack.buggy_program ()) ];
  record "ablation"
    (Json.Obj
       [ ("delay_vs_depth", Json.List (List.rev !ab1));
         ("causal_vs_round_robin", Json.List (List.rev !ab2));
         ("dedup_append", Json.List (List.rev !ab3));
         ("systematic_vs_random", Json.List (List.rev !ab4)) ])

let protocol_scaling ?(max_states = 2_000_000) () =
  line "== Protocol scaling: German's directory with n clients ==";
  line "   (the per-client sharer flags and request interleavings compound:";
  line "    the classic exponential growth that motivates bounded exploration)";
  line "%-4s %12s %12s %10s %8s" "n" "d=0 states" "d=1 states" "bug@d=0" "time(s)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let tab = tab_of (P_examples_lib.German.program ~n ()) in
      let r0 = Delay_bounded.explore ~delay_bound:0 ~max_states tab in
      let r1 = Delay_bounded.explore ~delay_bound:1 ~max_states tab in
      let tabb = tab_of (P_examples_lib.German.buggy_program ~n ()) in
      let rb = Delay_bounded.explore ~delay_bound:0 ~max_states tabb in
      let bug_depth =
        match rb.verdict with
        | Search.Error_found ce -> Some ce.depth
        | Search.No_error -> None
      in
      line "%-4d %11d%s %11d%s %10s %8.2f" n r0.stats.states (trunc_mark r0.stats)
        r1.stats.states (trunc_mark r1.stats)
        (match bug_depth with Some d -> Fmt.str "depth %d" d | None -> "missed")
        (r0.stats.elapsed_s +. r1.stats.elapsed_s);
      rows :=
        Json.Obj
          [ ("clients", Json.Int n);
            ("d0", json_of_stats r0.stats);
            ("d1", json_of_stats r1.stats);
            ( "bug_depth",
              match bug_depth with Some d -> Json.Int d | None -> Json.Null ) ]
        :: !rows)
    [ 2; 3; 4 ];
  record "protocol_scaling" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the engine primitives                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  line "== Bechamel micro-benchmarks ==";
  let open Bechamel in
  let open Toolkit in
  (* one Test.make per engine primitive behind the tables above *)
  let pingpong_tab = tab_of (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let test_interp =
    Test.make ~name:"interpreter: pingpong simulate (d=0 run)"
      (Staged.stage (fun () -> ignore (P_semantics.Simulate.run pingpong_tab)))
  in
  let elevator_tab = tab_of (P_examples_lib.Elevator.program ()) in
  let test_explore =
    Test.make ~name:"checker: elevator explore d=1"
      (Staged.stage (fun () ->
           ignore (Delay_bounded.explore ~delay_bound:1 elevator_tab)))
  in
  let canon = Canon.create elevator_tab in
  let config0, _, _ = P_semantics.Step.initial_config elevator_tab in
  let test_digest =
    Test.make ~name:"checker: configuration digest"
      (Staged.stage (fun () -> ignore (Canon.digest canon config0 [ 0 ])))
  in
  let source = P_syntax.Pretty.program_to_string (P_examples_lib.German.program ()) in
  let test_parse =
    Test.make ~name:"parser: german.p from source"
      (Staged.stage (fun () -> ignore (P_parser.Parser.program_of_string source)))
  in
  let test_dispatch =
    let device = P_examples_lib.Switch_led.new_device () in
    let driver = P_examples_lib.Switch_led.p_driver device in
    driver.P_host.Os_events.add_device ();
    let i = ref 0 in
    Test.make ~name:"runtime: switch-led event dispatch"
      (Staged.stage (fun () ->
           incr i;
           driver.P_host.Os_events.callback
             (P_host.Os_events.Interrupt { line = "switch"; data = !i land 1 })))
  in
  let test_dispatch_hand =
    let device = P_examples_lib.Switch_led.new_device () in
    let driver = P_examples_lib.Switch_led.handwritten_driver device in
    driver.P_host.Os_events.add_device ();
    let i = ref 0 in
    Test.make ~name:"runtime: hand-written event dispatch"
      (Staged.stage (fun () ->
           incr i;
           driver.P_host.Os_events.callback
             (P_host.Os_events.Interrupt { line = "switch"; data = !i land 1 })))
  in
  let tests =
    [ test_interp; test_explore; test_digest; test_parse; test_dispatch;
      test_dispatch_hand ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            line "%-45s %12.1f ns/run" name est;
            rows :=
              Json.Obj
                [ ("name", Json.String name); ("ns_per_run", Json.Float est) ]
              :: !rows
          | _ -> line "%-45s (no estimate)" name)
        results)
    tests;
  record "micro" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* bench reduce: state-space reduction across the example suite        *)
(* ------------------------------------------------------------------ *)

(* For each workload, explore under every reduction mode and report the
   state count next to the unreduced baseline. The soundness contract —
   the reduced search reports an error iff the unreduced one does — is
   asserted here, not just measured; a verdict-kind mismatch fails the
   bench, and so does a flagship subject (the fifth component) on which
   reduction does not strictly win. State counts are deterministic, so
   they (and the ratios) are emitted as exact values and gate in
   [compare]. *)
let reduce_bench ?(smoke = false) () =
  line "== State-space reduction: sleep-set POR ==";
  let subjects =
    let usb_cap = if smoke then 12 else 20 in
    [ ("token-ring", tab_of (P_examples_lib.Token_ring.program ()), 2, None, true);
      ("elevator", tab_of (P_examples_lib.Elevator.program ()), 2, None, true) ]
    @ (if smoke then []
       else
         [ ("elevator[d=3]", tab_of (P_examples_lib.Elevator.program ()), 3, None, false);
           ( "german[n=3,r=2]",
             tab_of (P_examples_lib.German.program ~n:3 ~requests:2 ()),
             2, None, true ) ])
    @ [ ("usb-stack", tab_of (P_usb.Stack.program ()), 2, Some usb_cap, true) ]
  in
  let verdict_kind (r : Search.result) =
    match r.verdict with
    | Search.No_error -> "ok"
    | Search.Error_found e -> "error:" ^ P_semantics.Errors.to_string e.error
  in
  line "%-16s %-9s %10s %10s %8s %9s" "workload" "reduce" "states" "pruned"
    "ratio" "time(s)";
  let rows = ref [] in
  List.iter
    (fun (name, tab, delay_bound, max_depth, flagship) ->
      let explore reduce =
        match max_depth with
        | None ->
          Delay_bounded.explore ~delay_bound ~max_states:2_000_000 ~reduce tab
        | Some max_depth ->
          Delay_bounded.explore ~delay_bound ~max_depth ~max_states:2_000_000
            ~reduce tab
      in
      let none = explore Reduce.none in
      List.iter
        (fun reduce ->
          let r = if Reduce.is_none reduce then none else explore reduce in
          if verdict_kind r <> verdict_kind none then
            fail "%s under %a: verdict %s, unreduced says %s" name Reduce.pp
              reduce (verdict_kind r) (verdict_kind none);
          if r.stats.states > none.stats.states then
            fail "%s under %a explored more states than unreduced" name
              Reduce.pp reduce;
          if flagship && (not (Reduce.is_none reduce))
             && r.stats.states >= none.stats.states
          then
            fail "%s: %a reduction explored %d states vs %d unreduced" name
              Reduce.pp reduce r.stats.states none.stats.states;
          let ratio =
            float_of_int r.stats.states /. float_of_int none.stats.states
          in
          line "%-16s %-9s %10d %10d %8.3f %9.2f" name
            (Reduce.to_string reduce) r.stats.states r.stats.pruned ratio
            r.stats.elapsed_s;
          rows :=
            Json.Obj
              [ (* the mode is part of the row identity so that [compare]
                   lines reduced rows up with reduced rows *)
                ( "name",
                  Json.String (name ^ ":" ^ Reduce.to_string reduce) );
                ("mode", Json.String (Reduce.to_string reduce));
                ("delay_bound", Json.Int delay_bound);
                ("verdict", Json.String (verdict_kind r));
                ("states", Json.Int r.stats.states);
                ("pruned", Json.Int r.stats.pruned);
                ("state_ratio", Json.String (Fmt.str "%.3f" ratio));
                ("elapsed_s", Json.Float r.stats.elapsed_s) ]
            :: !rows)
        Reduce.all;
      hr ())
    subjects;
  record "reduce" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* bench faults: the adversarial host over the protocol families       *)
(* ------------------------------------------------------------------ *)

(* Per (family x fault class): a fault-injected exploration of the two
   distributed-protocol workload families, recording verdict, exact state
   and transition counts and fired-fault counts — exact metrics that pin
   the determinism contract in [compare]. A second leg runs each family under
   the serving runtime's adversarial host and records the per-class
   injection and crash-restart counters (single-domain and seeded, so
   they are exact too). Hard contracts: fault-free both families are
   clean, and at least one fault class must change each family's
   verdict — that verdict flip is the point of the experiment. *)

let fault_classes =
  let open P_semantics.Fault in
  [ ("none", none);
    ("drop", { none with drop = 200 });
    ("dup", { none with dup = 300 });
    ("reorder", { none with reorder = 300 });
    ("delay", { none with delay = 300 });
    ("crash", { none with crash = 100 });
    ("mixed", { none with drop = 100; dup = 150; reorder = 100; crash = 50 }) ]

let faults_bench ?(smoke = false) () =
  line "== Fault injection: adversarial host over the protocol families ==";
  line "   (verdict flips are the experiment: dup past ⊕ trips the counted";
  line "    assertions; drop/reorder/crash stall safely)";
  let max_states = if smoke then 30_000 else 300_000 in
  (* checker leg at the exhaustive-exploration size; the serving-runtime
     leg is a single linear schedule, so it affords a larger instance *)
  let host_n = if smoke then 6 else 12 in
  let families =
    [ ( "leader-ring",
        (fun n -> P_examples_lib.Leader_ring.program ~n ()),
        "Starter" );
      ( "failover-chain",
        (fun n -> P_examples_lib.Failover_chain.program ~n ()),
        "Net" ) ]
  in
  let rows = ref [] in
  line "%-16s %-9s %-10s %9s %12s %8s %12s" "family" "class" "verdict" "states"
    "transitions" "faults" "states/s";
  List.iter
    (fun (fname, family, main) ->
      let tab = tab_of (family 3) in
      let refuted = ref 0 in
      List.iter
        (fun (cname, plan) ->
          let faults = P_semantics.Fault.with_seed 0 plan in
          let r =
            if P_semantics.Fault.is_none plan then
              Delay_bounded.explore ~delay_bound:2 ~max_states tab
            else Delay_bounded.explore ~delay_bound:2 ~max_states ~faults tab
          in
          let verdict =
            match r.verdict with
            | Search.No_error -> "clean"
            | Search.Error_found _ ->
              incr refuted;
              "refuted"
          in
          if P_semantics.Fault.is_none plan && verdict <> "clean" then
            fail "%s must be clean without injection" fname;
          let per_s =
            if r.stats.elapsed_s > 0.0 then
              float_of_int r.stats.states /. r.stats.elapsed_s
            else 0.0
          in
          line "%-16s %-9s %-10s %9d %12d %8d %12.0f" fname cname verdict
            r.stats.states r.stats.transitions r.stats.faults per_s;
          rows :=
            Json.Obj
              [ ("name", Json.String (fname ^ "/" ^ cname));
                ("family", Json.String fname);
                ("class", Json.String cname);
                ("verdict", Json.String verdict);
                ("states", Json.Int r.stats.states);
                ("transitions", Json.Int r.stats.transitions);
                ("faults_fired", Json.Int r.stats.faults);
                ("truncated", Json.Bool r.stats.truncated);
                ("elapsed_s", Json.Float r.stats.elapsed_s) ]
            :: !rows)
        fault_classes;
      if !refuted = 0 then fail "no fault class changed %s's verdict" fname;
      (* serving-runtime leg: the same family under the scheduler's
         adversarial host (delay is checker-only, so the mixed plan here
         carries the other four classes) *)
      (* gentler rates than the checker leg: the single schedule must
         survive its one-shot wiring phase to generate protocol traffic *)
      let host_plan =
        P_semantics.Fault.with_seed 2
          { P_semantics.Fault.none with
            drop = 30;
            dup = 80;
            reorder = 60;
            crash = 40 }
      in
      let driver = P_compile.Compile.compile_full (family host_n) in
      let fleet = if smoke then 20 else 200 in
      let s =
        P_runtime.Sched.create ~policy:P_runtime.Sched.Fifo ~seed:1
          ~faults:host_plan driver
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        try
          for _ = 1 to fleet do
            ignore (P_runtime.Sched.create_machine s main : int)
          done;
          P_runtime.Sched.run s;
          "quiescent"
        with P_runtime.Exec.Runtime_error _ -> "assertion-refuted"
      in
      let host_elapsed = Unix.gettimeofday () -. t0 in
      let st = P_runtime.Sched.stats s in
      line
        "%-16s %-9s %-10s dequeues=%d drops=%d dups=%d reorders=%d restarts=%d"
        fname "host" outcome st.P_runtime.Sched.st_dequeues
        st.P_runtime.Sched.st_fault_drops st.P_runtime.Sched.st_fault_dups
        st.P_runtime.Sched.st_fault_reorders st.P_runtime.Sched.st_crash_restarts;
      rows :=
        Json.Obj
          [ ("name", Json.String (fname ^ "/host"));
            ("family", Json.String fname);
            ("class", Json.String "host-mixed");
            ("fleet", Json.Int fleet);
            ("outcome", Json.String outcome);
            ("dequeues", Json.Int st.P_runtime.Sched.st_dequeues);
            ("sends", Json.Int st.P_runtime.Sched.st_sends);
            ("fault_drops", Json.Int st.P_runtime.Sched.st_fault_drops);
            ("fault_dups", Json.Int st.P_runtime.Sched.st_fault_dups);
            ("fault_reorders", Json.Int st.P_runtime.Sched.st_fault_reorders);
            ("crash_restarts", Json.Int st.P_runtime.Sched.st_crash_restarts);
            ("shed_mailbox", Json.Int st.P_runtime.Sched.st_shed_mailbox);
            ("elapsed_s", Json.Float host_elapsed) ]
        :: !rows)
    families;
  record "faults" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* bench compare: exact regression gate between two p-bench/1 documents *)
(* ------------------------------------------------------------------ *)

(* Every integer, boolean, string and null leaf under "results" is an
   exact metric — a state or transition count, a verdict, a bug depth —
   and any difference at all is a regression, on any machine. Float
   leaves are wall-clock or memory measurements and are never gated:
   perfbench times the system, with repeated runs and their spread. Keys
   that name a run's parameters rather than its result are skipped. *)
let parameter_keys = [ "delay_bound"; "clients"; "events" ]

(* A human-stable path segment for a list element: prefer its identity
   fields over its position, so two documents whose sweeps enumerate the
   same cells in a different order still line up metric-for-metric. *)
let label_of_item fields =
  let find k =
    match List.assoc_opt k fields with
    | Some (Json.String s) -> Some s
    | Some (Json.Int n) -> Some (string_of_int n)
    | _ -> None
  in
  let base =
    List.find_map find
      [ "benchmark"; "machine"; "driver"; "name"; "scheduler"; "search";
        "append"; "store" ]
  in
  let discs =
    List.filter_map
      (fun k -> Option.map (fun v -> k ^ "=" ^ v) (find k))
      [ "delay_bound"; "clients" ]
  in
  match (base, discs) with
  | None, [] -> None
  | None, ds -> Some (String.concat "," ds)
  | Some b, [] -> Some b
  | Some b, ds -> Some (b ^ "[" ^ String.concat "," ds ^ "]")

let rec flatten path key (j : Json.t) acc =
  match j with
  | Json.Obj fields ->
    List.fold_left (fun acc (k, v) -> flatten (path ^ "/" ^ k) k v acc) acc fields
  | Json.List items ->
    let _, acc =
      List.fold_left
        (fun (i, acc) item ->
          let seg =
            match item with
            | Json.Obj fields -> (
              match label_of_item fields with
              | Some l -> l
              | None -> string_of_int i)
            | _ -> string_of_int i
          in
          (i + 1, flatten (path ^ "/" ^ seg) key item acc))
        (0, acc) items
    in
    acc
  | Json.Float _ -> acc
  | _ when List.mem key parameter_keys -> acc
  | leaf -> (path, leaf) :: acc

let compare_docs old_path new_path =
  let fail msg =
    prerr_endline ("bench compare: " ^ msg);
    exit 2
  in
  let metrics p =
    match Json.of_string (In_channel.with_open_bin p In_channel.input_all) with
    | exception Json.Parse_error msg -> fail (p ^ ": " ^ msg)
    | exception Sys_error msg -> fail msg
    | doc -> (
      match Json.member "results" doc with
      | Some r -> List.rev (flatten "" "results" r [])
      | None -> fail (p ^ ": no \"results\" object"))
  in
  let old_m = metrics old_path and new_m = metrics new_path in
  let new_tbl = Hashtbl.of_seq (List.to_seq new_m) in
  let compared = ref 0 and regressions = ref 0 in
  let regression fmt =
    incr regressions;
    line ("REGRESSION " ^^ fmt)
  in
  List.iter
    (fun (path, ov) ->
      match Hashtbl.find_opt new_tbl path with
      | None ->
        (* baseline coverage lost: a benchmark that stopped being run
           can hide any regression, so it is one *)
        regression "%-56s present in baseline, missing in new run" path
      | Some nv ->
        incr compared;
        if nv <> ov then
          regression "%-56s %s -> %s" path (Json.to_string ov) (Json.to_string nv))
    old_m;
  let new_only =
    List.length (List.filter (fun (p, _) -> not (List.mem_assoc p old_m)) new_m)
  in
  line "compared %d exact metric(s): %d regression(s)%s" !compared !regressions
    (if new_only > 0 then Printf.sprintf ", %d new-only metric(s)" new_only else "");
  !regressions = 0

(* ------------------------------------------------------------------ *)

let all () =
  fig7 ();
  hr ();
  bugs ();
  hr ();
  fig8 ();
  hr ();
  fig8_stores ();
  hr ();
  overhead ();
  hr ();
  ablation ();
  hr ();
  protocol_scaling ();
  hr ();
  faults_bench ();
  hr ();
  micro ()

(* A seconds-scale pass over every recorded table at tiny budgets; its
   document is what bench/fixtures/smoke-baseline.json pins. *)
let smoke () =
  fig7 ~max_states:2_000 ~bounds:[ 0; 1 ] ();
  hr ();
  fig8 ~max_states:2_000 ();
  hr ();
  fig8_stores ~max_states:5_000 ();
  hr ();
  overhead ~events:50 ();
  hr ();
  reduce_bench ~smoke:true ();
  hr ();
  faults_bench ~smoke:true ()

(* Pull [--json FILE] and [--smoke] out of argv (any position after the
   subcommand), returning the remaining arguments. *)
let parse_flags args =
  let rec go json smoke acc = function
    | [] -> (json, smoke, List.rev acc)
    | "--json" :: path :: rest -> go (Some path) smoke acc rest
    | "--smoke" :: rest -> go json true acc rest
    | a :: rest -> go json smoke (a :: acc) rest
  in
  go None false [] args

let () =
  let json_path, smoke_budgets, args =
    parse_flags (List.tl (Array.to_list Sys.argv))
  in
  (* Fail on an unwritable --json path now, not after the benchmarks ran. *)
  (match json_path with
  | None -> ()
  | Some path -> (
    try close_out (open_out path)
    with Sys_error msg ->
      prerr_endline ("bench: cannot write " ^ msg);
      exit 2));
  (match args with
  | [ "fig7" ] -> fig7 ()
  | [ "bugs" ] -> bugs ()
  | [ "fig8" ] ->
    if smoke_budgets then begin
      fig8 ~max_states:2_000 ();
      hr ();
      fig8_stores ~max_states:20_000 ()
    end
    else begin
      fig8 ();
      hr ();
      fig8_stores ()
    end
  | [ "overhead" ] -> overhead ()
  | [ "ablation" ] -> ablation ()
  | [ "compare"; old_path; new_path ] ->
    if not (compare_docs old_path new_path) then exit 1
  | "compare" :: _ ->
    prerr_endline "usage: bench compare OLD.json NEW.json";
    exit 2
  | [ "reduce" ] -> reduce_bench ~smoke:smoke_budgets ()
  | [ "faults" ] -> faults_bench ~smoke:smoke_budgets ()
  | [ "protocol-scaling" ] -> protocol_scaling ()
  | [ "micro" ] -> micro ()
  | [ "smoke" ] -> smoke ()
  | [] -> all ()
  | _ ->
    prerr_endline
      ("usage: bench [fig7|bugs|fig8|overhead|ablation|reduce|faults|\
        protocol-scaling|micro|smoke] [--smoke] [--json FILE]\n\
       \       bench compare OLD.json NEW.json");
    exit 2);
  Option.iter write_results json_path;
  if !failed then exit 1
