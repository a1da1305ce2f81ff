(* Tests for the observability subsystem (P_obs): the JSON tree and parser,
   the sharded metrics registry, the Chrome trace sinks, the checker/runtime
   instrumentation, and the --stats-json report schema. *)

open P_checker
module Json = P_obs.Json
module Metrics = P_obs.Metrics
module Sink = P_obs.Sink
module Mclock = P_obs.Mclock
module Sem_trace = P_obs.Sem_trace

module Profile = P_obs.Profile
module Telemetry = P_obs.Telemetry
module Machine_info = P_obs.Machine_info

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The multi-domain tests run at this width — the CI matrix exercises the
   suite at PCAML_TEST_DOMAINS 1 and 4 (same convention as
   test_quickcheck.ml). *)
let domains_under_test =
  match Option.bind (Sys.getenv_opt "PCAML_TEST_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 && n <= 128 -> n
  | Some _ | None -> 4

let tab_of p = P_static.Check.run_exn p

let with_temp_file f =
  let path = Filename.temp_file "p_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("null", Json.Null);
        ("t", Json.Bool true);
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("tricky", Json.String "a\"b\\c\nd\te\x01f");
        ("unicode", Json.String "état → 機械");
        ("list", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]
  in
  let reparsed = Json.of_string (Json.to_string doc) in
  check bool_t "compact round-trips" true (reparsed = doc);
  let reparsed = Json.of_string (Json.to_string_pretty doc) in
  check bool_t "pretty round-trips" true (reparsed = doc)

let test_json_parser_details () =
  (* \uXXXX escapes, surrogate pairs, numbers *)
  check bool_t "escape" true (Json.of_string {|"é"|} = Json.String "é");
  check bool_t "surrogate pair" true
    (Json.of_string {|"😀"|} = Json.String "😀");
  check bool_t "float" true (Json.of_string "1e3" = Json.Float 1000.0);
  check bool_t "int" true (Json.of_string "-17" = Json.Int (-17));
  (* non-finite floats degrade to null rather than emitting invalid JSON *)
  check bool_t "nan prints null" true
    (Json.to_string (Json.Float Float.nan) = "null");
  check bool_t "rejects trailing" true
    (match Json.of_string "{} x" with
    | exception Json.Parse_error _ -> true
    | _ -> false)

(* ---------------- metrics registry ---------------- *)

let test_metrics_semantics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.counter" in
  Metrics.incr c;
  Metrics.add c 9;
  check int_t "counter sums" 10 (Metrics.counter_value c);
  (* find-or-register: the same (name, labels) is the same metric *)
  Metrics.incr (Metrics.counter reg "test.counter");
  check int_t "interned" 11 (Metrics.counter_value c);
  check bool_t "negative add rejected" true
    (match Metrics.add c (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* labels distinguish *)
  let c_a = Metrics.counter reg ~labels:[ ("engine", "a") ] "test.counter" in
  Metrics.incr c_a;
  check int_t "labelled is separate" 1 (Metrics.counter_value c_a);
  check int_t "counter_total sums label sets" 12
    (Metrics.counter_total reg "test.counter");
  (* gauges are high-water marks *)
  let g = Metrics.gauge reg "test.gauge" in
  Metrics.set g 5.0;
  Metrics.set_max g 3.0;
  check bool_t "set_max keeps max" true (Metrics.gauge_value g = 5.0);
  Metrics.set_max g 8.0;
  check bool_t "set_max raises" true (Metrics.gauge_value g = 8.0);
  (* histograms *)
  let h = Metrics.histogram reg ~buckets:[| 0.1; 1.0 |] "test.hist" in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.5; 5.0 ];
  let s = Metrics.histogram_summary h in
  check int_t "hist count" 4 s.h_count;
  check bool_t "hist max" true (s.h_max = 5.0);
  check bool_t "hist buckets" true
    (List.map snd s.h_buckets = [ 1; 2; 1 ]);
  (* the dump is valid JSON and mentions every metric *)
  let dump = Json.of_string (Json.to_string (Metrics.dump reg)) in
  match Json.to_list dump with
  | Some items ->
    check int_t "dump has all metrics" 4 (List.length items)
  | None -> Alcotest.fail "dump is not a list"

(* The tentpole concurrency claim: per-domain shards merged on read equal
   the sequential totals. Run the parallel engine with a registry attached
   and compare the worker-side expansion counter with the sequential
   transition count. *)
let test_shard_merge_equals_sequential () =
  let tab = tab_of (P_examples_lib.Elevator.program ()) in
  let seq = Delay_bounded.explore ~delay_bound:2 ~max_states:200_000 tab in
  let reg = Metrics.create () in
  let instr = Search.instr ~metrics:reg () in
  let par =
    Parallel.explore ~domains:3 ~delay_bound:2
      ~max_states:200_000 ~instr tab
  in
  check int_t "parallel agrees with sequential" seq.stats.states par.stats.states;
  (* the work-stealing engine expands each state exactly once at its minimal
     delay budget, so its transition count can be below the sequential one
     (which re-expands states first reached at a higher budget); the shard
     merge must reproduce the engine's own total exactly *)
  check int_t "expansions merged across shards = parallel transitions"
    par.stats.transitions
    (Metrics.counter_total reg "checker.expansions");
  check bool_t "parallel transitions <= sequential" true
    (par.stats.transitions <= seq.stats.transitions);
  check int_t "merged states counter = states" par.stats.states
    (Metrics.counter_total reg "checker.states");
  check int_t "merged transitions counter = transitions" par.stats.transitions
    (Metrics.counter_total reg "checker.transitions")

(* ---------------- instrumentation is invisible in results ------------- *)

let test_instrumented_results_identical () =
  let tab = tab_of (P_examples_lib.Elevator.buggy_program ()) in
  let reg = Metrics.create () in
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.chrome oc in
      let instr = Search.instr ~metrics:reg ~sink () in
      let plain = Delay_bounded.explore ~delay_bound:2 tab in
      let instrumented = Delay_bounded.explore ~delay_bound:2 ~instr tab in
      Sink.close sink;
      close_out oc;
      check int_t "states" plain.stats.states instrumented.stats.states;
      check int_t "transitions" plain.stats.transitions
        instrumented.stats.transitions;
      check bool_t "same verdict" true
        (match (plain.verdict, instrumented.verdict) with
        | Search.Error_found a, Search.Error_found b ->
          a.error = b.error && a.trace = b.trace && a.depth = b.depth
        | Search.No_error, Search.No_error -> true
        | _ -> false);
      (* the metrics agree with the stats *)
      check int_t "metrics states" plain.stats.states
        (Metrics.counter_total reg "checker.states"))

(* ---------------- trace sinks ---------------- *)

(* A known counterexample round-trips through the Chrome JSON: the
   observable items recovered from the parsed file equal the observable
   items of the trace itself, in order. *)
let test_chrome_trace_roundtrip () =
  let tab = tab_of (P_examples_lib.Elevator.buggy_program ()) in
  let r = Delay_bounded.explore ~delay_bound:2 tab in
  let ce =
    match r.verdict with
    | Search.Error_found ce -> ce
    | Search.No_error -> Alcotest.fail "elevator-buggy must fail"
  in
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.chrome oc in
      Sem_trace.emit sink ce.trace;
      Sink.close sink;
      close_out oc;
      let doc = Json.of_string (read_file path) in
      (* well-formed Chrome trace: a traceEvents array of objects *)
      (match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
        check bool_t "has events" true (List.length evs > 0)
      | _ -> Alcotest.fail "no traceEvents array");
      let expected = Sem_trace.observable_keys ce.trace in
      let got = Sem_trace.observable_keys_of_json doc in
      check bool_t "at least one observable item" true (expected <> []);
      check bool_t "observable items round-trip in order" true (expected = got))

let test_jsonl_sink_lines_parse () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.jsonl oc in
      Sink.instant sink ~name:"a" ~ts_us:1.0 ();
      Sink.complete sink ~cat:"engine" ~name:"b" ~ts_us:0.0 ~dur_us:10.0
        ~args:[ ("k", Json.Int 1) ] ();
      Sink.counter sink ~name:"c" ~ts_us:2.0 ~values:[ ("v", 3.0) ] ();
      Sink.close sink;
      close_out oc;
      let lines =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      check int_t "three lines" 3 (List.length lines);
      List.iter
        (fun l ->
          match Json.of_string l with
          | Json.Obj fields ->
            check bool_t "has ph" true (List.mem_assoc "ph" fields)
          | _ -> Alcotest.fail "line is not an object")
        lines)

let test_null_sink_disabled () =
  check bool_t "null sink disabled" false (Sink.enabled Sink.null);
  (* with_span on the null sink runs the thunk and nothing else *)
  check int_t "with_span passthrough" 7
    (Sink.with_span Sink.null ~name:"x" (fun () -> 7))

(* ---------------- the --stats-json document ---------------- *)

let test_stats_json_states_field () =
  let report = Verifier.verify ~delay_bound:2 (P_examples_lib.Elevator.program ()) in
  let safety = Option.get report.safety in
  let doc = Json.of_string (Json.to_string (Obs_report.json_of_report report)) in
  check bool_t "states field matches Search.result" true
    (Json.path doc [ "safety"; "stats"; "states" ]
    = Some (Json.Int safety.stats.states));
  check bool_t "clean" true (Json.member "clean" doc = Some (Json.Bool true))

(* ---------------- runtime and host metrics ---------------- *)

let test_runtime_metrics () =
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile (P_examples_lib.Pingpong.program ~rounds:3 ())
  in
  let rt = P_runtime.Api.create driver in
  let reg = Metrics.create () in
  P_runtime.Api.set_metrics rt (Some reg);
  ignore (P_runtime.Api.create_machine rt "Pinger");
  (* 3 pings + 3 pongs + 1 done, as in the runtime trace test *)
  check int_t "runtime.sends" 7 (Metrics.counter_total reg "runtime.sends");
  check int_t "runtime.creates" 2 (Metrics.counter_total reg "runtime.creates");
  check bool_t "runtime.dequeues counted" true
    (Metrics.counter_total reg "runtime.dequeues" > 0)

let test_runtime_trace_sink () =
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile (P_examples_lib.Pingpong.program ~rounds:2 ())
  in
  let rt = P_runtime.Api.create driver in
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.chrome oc in
      P_runtime.Api.set_trace_hook rt (Some (Sem_trace.hook sink));
      ignore (P_runtime.Api.create_machine rt "Pinger");
      Sink.close sink;
      close_out oc;
      let doc = Json.of_string (read_file path) in
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
        let sends =
          List.filter
            (fun e ->
              Json.path e [ "args"; "kind" ] = Some (Json.String "sent"))
            evs
        in
        check int_t "runtime sends in trace" 5 (List.length sends)
      | _ -> Alcotest.fail "no traceEvents array")

(* One vocabulary: a ghost-free program's d = 0 run, written live through
   the runtime's hook and written from the simulator's trace, yields the
   same observable keys from either Chrome file. *)
let test_runtime_trace_matches_simulator () =
  let keys_written f =
    with_temp_file (fun path ->
        let oc = open_out path in
        let sink = Sink.chrome oc in
        f sink;
        Sink.close sink;
        close_out oc;
        Sem_trace.observable_keys_of_json (Json.of_string (read_file path)))
  in
  List.iter
    (fun (name, program, main) ->
      let from_runtime =
        keys_written (fun sink ->
            let { P_compile.Compile.driver; _ } = P_compile.Compile.compile program in
            let rt = P_runtime.Api.create driver in
            P_runtime.Api.set_trace_hook rt (Some (Sem_trace.hook sink));
            ignore (P_runtime.Api.create_machine rt main))
      in
      let from_simulator =
        keys_written (fun sink ->
            Sem_trace.emit sink (P_semantics.Simulate.run (tab_of program)).trace)
      in
      check bool_t (name ^ " has observable items") true (from_runtime <> []);
      check (Alcotest.list Alcotest.string) name from_simulator from_runtime)
    [ ("pingpong-3", P_examples_lib.Pingpong.program ~rounds:3 (), "Pinger");
      ( "boundedbuffer-4-2",
        P_examples_lib.Bounded_buffer.program ~items:4 ~credits:2 (),
        "Producer" ) ]

let test_host_callback_histogram () =
  let device = P_examples_lib.Switch_led.new_device () in
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile ~name:"switchled" (P_examples_lib.Switch_led.program ())
  in
  let rt = P_runtime.Api.create driver in
  P_runtime.Api.register_foreign rt "set_led" (fun _ctx args ->
      (match args with
      | [ P_runtime.Rt_value.Bool on ] -> P_examples_lib.Switch_led.set_led device on
      | _ -> invalid_arg "set_led");
      P_runtime.Rt_value.Null);
  let sk =
    P_host.Skeleton.attach rt ~main_machine:"SwitchLed" ~translate:(function
      | P_host.Os_events.Interrupt { line = "switch"; data } ->
        Some
          ((if data <> 0 then "SwitchOn" else "SwitchOff"), P_runtime.Rt_value.Null)
      | _ -> None)
  in
  let reg = Metrics.create () in
  let d = P_host.Skeleton.driver ~metrics:reg sk in
  d.P_host.Os_events.add_device ();
  for i = 1 to 10 do
    d.P_host.Os_events.callback
      (P_host.Os_events.Interrupt { line = "switch"; data = i land 1 })
  done;
  check int_t "host.callbacks" 10 (Metrics.counter_total reg "host.callbacks");
  let h = Metrics.histogram reg "host.callback_s" in
  let s = Metrics.histogram_summary h in
  check int_t "latency observations" 10 s.h_count;
  check bool_t "latencies positive" true (s.h_sum > 0.0)

(* ---------------- concurrent emission: histograms ---------------- *)

(* N domains hammer the same named histogram concurrently; each lands in
   its own registry shard, and the merged summary must account for every
   single observation — the shard-merge contract under real races, not
   just after a polite single-writer run. *)
let test_histogram_multi_domain_race () =
  let n = domains_under_test in
  let per_domain = 10_000 in
  let reg = Metrics.create () in
  let worker d () =
    let h = Metrics.histogram reg ~buckets:[| 0.5 |] "race.hist" in
    for i = 1 to per_domain do
      (* deterministic values: half below the 0.5 bound, half above *)
      Metrics.observe h (if i land 1 = 0 then 0.25 else 0.75)
    done;
    ignore d
  in
  let domains = List.init n (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Metrics.histogram_summary (Metrics.histogram reg "race.hist") in
  check int_t "every observation counted" (n * per_domain) s.h_count;
  check bool_t "sum exact" true
    (Float.abs (s.h_sum -. (float_of_int (n * per_domain) *. 0.5)) < 1e-6);
  check bool_t "buckets split evenly" true
    (List.map snd s.h_buckets = [ n * per_domain / 2; n * per_domain / 2 ])

(* ---------------- concurrent emission: profiler spans ---------------- *)

let phase_count summary phase =
  match Json.path summary [ "phases"; Profile.phase_name phase; "count" ] with
  | Some (Json.Int n) -> n
  | _ -> -1

(* N worker domains record into their own profiler lanes concurrently.
   The per-phase aggregate counts are exact (unaffected by coalescing),
   so every recorded span must be accounted for, attributed to the right
   phase. *)
let test_profiler_multi_domain_race () =
  let n = domains_under_test in
  let per_worker = 2_000 in
  let p = Profile.create ~workers:n () in
  check bool_t "enabled" true (Profile.enabled p);
  let worker w () =
    Profile.register_worker p ~worker:w;
    for i = 1 to per_worker do
      let t0 = Profile.start p in
      let phase = if i land 1 = 0 then Profile.Expand else Profile.Steal in
      Profile.record p ~worker:w phase ~t0
    done
  in
  let domains = List.init n (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  let summary = Profile.summary_json p in
  check int_t "expand spans all counted" (n * per_worker / 2)
    (phase_count summary Profile.Expand);
  check int_t "steal spans all counted" (n * per_worker / 2)
    (phase_count summary Profile.Steal);
  check bool_t "stored spans exist" true (Profile.span_count p > 0);
  (* the flushed trace is valid JSONL: one thread_name lane per worker,
     profile spans with tid inside [0, n) *)
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.jsonl oc in
      Profile.flush p sink;
      Sink.close sink;
      close_out oc;
      let lines =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> List.map Json.of_string
      in
      let lanes =
        List.filter
          (fun j -> Json.member "name" j = Some (Json.String "thread_name"))
          lines
      in
      check int_t "one lane per worker" n (List.length lanes);
      let spans =
        List.filter
          (fun j -> Json.member "cat" j = Some (Json.String "profile"))
          lines
      in
      check bool_t "spans flushed" true (spans <> []);
      check bool_t "span tids within worker range" true
        (List.for_all
           (fun j ->
             match Json.member "tid" j with
             | Some (Json.Int tid) -> tid >= 0 && tid < n
             | _ -> false)
           spans))

(* Coalescing merges back-to-back same-phase spans into one stored span
   while the aggregate count stays exact; the null profiler does nothing
   and reads as zero. *)
let test_profiler_coalescing_and_null () =
  let p = Profile.create ~coalesce_us:1e9 ~workers:1 () in
  Profile.register_worker p ~worker:0;
  for _ = 1 to 100 do
    let t0 = Profile.start p in
    Profile.record p ~worker:0 Profile.Expand ~t0
  done;
  check int_t "aggregate count exact" 100
    (phase_count (Profile.summary_json p) Profile.Expand);
  check int_t "coalesced to one stored span" 1 (Profile.span_count p);
  check bool_t "total time non-negative" true
    (Profile.total_us p Profile.Expand >= 0.0);
  (* null profiler: free and silent *)
  check bool_t "null disabled" false (Profile.enabled Profile.null);
  check bool_t "null start is 0" true (Profile.start Profile.null = 0.0);
  Profile.record Profile.null ~worker:0 Profile.Gc ~t0:0.0;
  Profile.poll_gc Profile.null;
  check bool_t "null totals zero" true
    (Profile.total_us Profile.null Profile.Expand = 0.0);
  check int_t "null span count" 0 (Profile.span_count Profile.null)

(* ---------------- telemetry ---------------- *)

let test_telemetry_sampling () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Sink.jsonl oc in
      let seen = ref [] in
      (* interval 0: every tick is due *)
      let t =
        Telemetry.create ~interval_us:0.0 ~sink
          ~on_sample:(fun s -> seen := s :: !seen)
          ()
      in
      check bool_t "enabled" true (Telemetry.enabled t);
      (* no probe installed yet: ticks are no-ops *)
      Telemetry.tick t;
      check int_t "no probe, no sample" 0 (Telemetry.samples_taken t);
      let states = ref 0 in
      Telemetry.set_probe t (fun () ->
          { Telemetry.states = !states;
            transitions = 2 * !states;
            frontier = 7.0;
            steals = 3;
            steal_attempts = 4;
            store_bytes = 8 * !states;
            shed = !states / 100 });
      states := 1_000;
      Telemetry.tick t;
      states := 3_000;
      Telemetry.force t;
      close_out oc;
      check int_t "two samples" 2 (Telemetry.samples_taken t);
      (match !seen with
      | [ s2; s1 ] ->
        check int_t "first sample states" 1_000 s1.Telemetry.states;
        check int_t "second sample states" 3_000 s2.Telemetry.states;
        check bool_t "rate positive between samples" true
          (s2.Telemetry.states_per_s > 0.0);
        check bool_t "steal success rate" true
          (Float.abs (s2.Telemetry.steal_success_rate -. 0.75) < 1e-9);
        check bool_t "frontier carried" true (s2.Telemetry.frontier = 7.0);
        check int_t "shed carried" 30 s2.Telemetry.shed;
        check bool_t "bytes per state positive" true
          (s2.Telemetry.bytes_per_state > 0.0)
      | _ -> Alcotest.fail "expected exactly two samples");
      (* the JSONL stream: one meta header carrying the machine block and
         the allocation-scope caveat, then one record per sample *)
      let lines =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> List.map Json.of_string
      in
      (match lines with
      | meta :: samples ->
        check bool_t "meta header first" true
          (Json.member "type" meta = Some (Json.String "meta"));
        check bool_t "meta has machine block" true
          (Json.path meta [ "machine"; "cores" ] <> None);
        check bool_t "meta flags alloc scope" true
          (Json.member "alloc_scope" meta
          = Some (Json.String "sampling-domain"));
        check int_t "one line per sample" 2 (List.length samples);
        check bool_t "samples typed" true
          (List.for_all
             (fun j -> Json.member "type" j = Some (Json.String "sample"))
             samples)
      | [] -> Alcotest.fail "telemetry file empty");
      (* null telemetry: free *)
      check bool_t "null disabled" false (Telemetry.enabled Telemetry.null);
      Telemetry.tick Telemetry.null;
      Telemetry.force Telemetry.null;
      check int_t "null takes no samples" 0
        (Telemetry.samples_taken Telemetry.null))

(* ---------------- machine context ---------------- *)

let test_machine_info () =
  check bool_t "cores positive" true (Machine_info.cores () >= 1);
  let doc = Json.of_string (Json.to_string (Machine_info.json ())) in
  check bool_t "cores" true
    (Json.member "cores" doc = Some (Json.Int (Machine_info.cores ())));
  check bool_t "ocaml version" true
    (Json.member "ocaml_version" doc = Some (Json.String Sys.ocaml_version));
  check bool_t "word size" true
    (Json.member "word_size" doc = Some (Json.Int Sys.word_size));
  (* git_rev is a 40-hex commit inside a checkout, null elsewhere (the
     dune sandbox qualifies as elsewhere) *)
  (match Json.member "git_rev" doc with
  | Some Json.Null -> ()
  | Some (Json.String rev) ->
    check bool_t "rev is 40-hex" true
      (String.length rev = 40
      && String.for_all
           (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
           rev)
  | _ -> Alcotest.fail "git_rev missing");
  (* fields () splices to the same content as json () *)
  check bool_t "fields = json" true
    (Json.Obj (Machine_info.fields ()) = Machine_info.json ())

(* ---------------- end-to-end: instrumented parallel run -------------- *)

(* The full stack at once: the parallel engine under metrics + profiler +
   telemetry must produce the same verdict and counts as a bare run, while
   yielding expand spans and at least one telemetry sample. *)
let test_parallel_profiled_run () =
  let tab = tab_of (P_examples_lib.Elevator.program ()) in
  let plain =
    Parallel.explore ~domains:domains_under_test ~delay_bound:2
      ~max_states:200_000 tab
  in
  let profiler = Profile.create ~workers:domains_under_test () in
  let samples = ref 0 in
  let telemetry =
    Telemetry.create ~interval_us:0.0 ~on_sample:(fun _ -> incr samples) ()
  in
  let reg = Metrics.create () in
  let instr = Search.instr ~metrics:reg ~profile:profiler ~telemetry () in
  let r =
    Parallel.explore ~domains:domains_under_test ~delay_bound:2
      ~max_states:200_000 ~instr tab
  in
  (* a short run may finish between ticker firings; the engines' callers
     (pc verify) force a final sample, and so does this test *)
  Telemetry.force telemetry;
  check int_t "states identical under full instrumentation"
    plain.stats.states r.stats.states;
  check int_t "transitions identical" plain.stats.transitions
    r.stats.transitions;
  check bool_t "expand time attributed" true
    (Profile.total_us profiler Profile.Expand > 0.0);
  (* one Expand span per node popped; the work-stealing engine expands
     each state at most once, so the exact aggregate count is bounded by
     the state count *)
  let expands = phase_count (Profile.summary_json profiler) Profile.Expand in
  check bool_t "expand spans cover the run" true
    (expands > 0 && expands <= r.stats.states);
  check bool_t "telemetry sampled" true (!samples >= 1)

(* ---------------- the monotonic clock ---------------- *)

let test_mclock_monotonic () =
  let a = Mclock.now_ns () in
  let span = Mclock.start () in
  let b = Mclock.now_ns () in
  check bool_t "non-decreasing" true (Int64.compare b a >= 0);
  check bool_t "elapsed non-negative" true (Mclock.elapsed_s span >= 0.0);
  let x, dt = Mclock.timed (fun () -> 21 * 2) in
  check int_t "timed result" 42 x;
  check bool_t "timed duration" true (dt >= 0.0)

let suite =
  [ Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: parser details" `Quick test_json_parser_details;
    Alcotest.test_case "metrics: semantics" `Quick test_metrics_semantics;
    Alcotest.test_case "metrics: shard merge = sequential" `Quick
      test_shard_merge_equals_sequential;
    Alcotest.test_case "instr: results identical" `Quick
      test_instrumented_results_identical;
    Alcotest.test_case "sink: chrome trace round-trips" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "sink: jsonl lines parse" `Quick test_jsonl_sink_lines_parse;
    Alcotest.test_case "sink: null is free" `Quick test_null_sink_disabled;
    Alcotest.test_case "metrics: histogram multi-domain race" `Quick
      test_histogram_multi_domain_race;
    Alcotest.test_case "profile: multi-domain span race" `Quick
      test_profiler_multi_domain_race;
    Alcotest.test_case "profile: coalescing and null" `Quick
      test_profiler_coalescing_and_null;
    Alcotest.test_case "telemetry: sampling" `Quick test_telemetry_sampling;
    Alcotest.test_case "machine: context block" `Quick test_machine_info;
    Alcotest.test_case "e2e: instrumented parallel run" `Quick
      test_parallel_profiled_run;
    Alcotest.test_case "report: stats-json states field" `Quick
      test_stats_json_states_field;
    Alcotest.test_case "runtime: metrics counters" `Quick test_runtime_metrics;
    Alcotest.test_case "runtime: trace sink" `Quick test_runtime_trace_sink;
    Alcotest.test_case "runtime: trace keys = simulator's" `Quick
      test_runtime_trace_matches_simulator;
    Alcotest.test_case "host: callback histogram" `Quick
      test_host_callback_histogram;
    Alcotest.test_case "mclock: monotonic" `Quick test_mclock_monotonic ]
