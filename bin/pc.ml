(* pc — the P compiler and verifier command-line driver.

   Subcommands mirror the paper's toolchain: [check] (static checks and the
   ghost-erasure type system), [verify] (systematic testing with the
   delay-bounded scheduler, optionally the liveness checks), [simulate]
   (the deterministic d=0 causal execution), [erase] (print the compiled
   real-only program), [compile] (emit table-driven C), and [print]
   (parse and pretty-print). Programs come from a .p file or from the
   built-in example suite via --example. *)

open Cmdliner

let examples : (string * (unit -> P_syntax.Ast.program)) list =
  [ ("elevator", fun () -> P_examples_lib.Elevator.program ());
    ("elevator-buggy", fun () -> P_examples_lib.Elevator.buggy_program ());
    ("pingpong", fun () -> P_examples_lib.Pingpong.program ());
    ("pingpong-buggy", fun () -> P_examples_lib.Pingpong.buggy_program ());
    ("german", fun () -> P_examples_lib.German.program ());
    ("german-buggy", fun () -> P_examples_lib.German.buggy_program ());
    ("switchled", fun () -> P_examples_lib.Switch_led.program ());
    ("switchled-buggy", fun () -> P_examples_lib.Switch_led.buggy_program ());
    ("tokenring", fun () -> P_examples_lib.Token_ring.program ());
    ("tokenring-buggy", fun () -> P_examples_lib.Token_ring.buggy_program ());
    ("boundedbuffer", fun () -> P_examples_lib.Bounded_buffer.program ());
    ("boundedbuffer-buggy", fun () -> P_examples_lib.Bounded_buffer.buggy_program ());
    ("leaderring", fun () -> P_examples_lib.Leader_ring.program ());
    ("leaderring-buggy", fun () -> P_examples_lib.Leader_ring.buggy_program ());
    ("failoverchain", fun () -> P_examples_lib.Failover_chain.program ());
    ("failoverchain-buggy", fun () -> P_examples_lib.Failover_chain.buggy_program ());
    ("usb-hsm", fun () -> P_usb.Gen.program_of_spec P_usb.Gen.hsm_spec);
    ("usb-psm30", fun () -> P_usb.Gen.program_of_spec P_usb.Gen.psm30_spec);
    ("usb-psm20", fun () -> P_usb.Gen.program_of_spec P_usb.Gen.psm20_spec);
    ("usb-dsm", fun () -> P_usb.Gen.program_of_spec P_usb.Gen.dsm_spec);
    ("usb-stack", fun () -> P_usb.Stack.program ());
    ("usb-stack-buggy", fun () -> P_usb.Stack.buggy_program ()) ]

let load_program file example =
  match (file, example) with
  | Some path, None -> (
    try Ok (P_parser.Parser.program_of_file path) with
    | P_parser.Parse_error.Error e -> Error (P_parser.Parse_error.to_string e)
    | Sys_error msg -> Error msg)
  | None, Some name -> (
    match List.assoc_opt name examples with
    | Some f -> Ok (f ())
    | None ->
      Error
        (Fmt.str "unknown example %S; available: %s" name
           (String.concat ", " (List.map fst examples))))
  | Some _, Some _ -> Error "give either FILE or --example, not both"
  | None, None -> Error "give a FILE or --example NAME"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"P source file.")

let example_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "example" ] ~docv:"NAME" ~doc:"Use a built-in example program instead of a file.")

let or_die = function
  | Ok v -> v
  | Error msg ->
    Fmt.epr "pc: %s@." msg;
    exit 2

(* Output files are opened before any search runs, so a bad path fails
   fast instead of discarding a long exploration's results at the end. *)
let open_out_or_die path =
  try open_out path
  with Sys_error msg ->
    Fmt.epr "pc: cannot write %s@." msg;
    exit 2

(* ---------------- check ---------------- *)

let run_check file example =
  let program = or_die (load_program file example) in
  match P_static.Check.run program with
  | { diagnostics = []; _ } ->
    Fmt.pr "ok: %d event(s), %d machine(s), %d state(s), %d transition(s)@."
      (List.length program.events)
      (List.length program.machines)
      (P_syntax.Ast.program_state_count program)
      (P_syntax.Ast.program_transition_count program)
  | { diagnostics; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics diagnostics;
    exit 1

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Run the static checks (well-formedness, types, ghost erasure).")
    Term.(const run_check $ file_arg $ example_arg)

(* ---------------- verify ---------------- *)

(* A stderr heartbeat for --progress: at most about one line per second,
   driven by the telemetry sampler, so it reports live rates (over the
   sampling interval) rather than averages since start. *)
let make_heartbeat () =
  let last = ref neg_infinity in
  fun (x : P_obs.Telemetry.sample) ->
    if x.elapsed_s -. !last >= 1.0 then begin
      last := x.elapsed_s;
      Fmt.epr
        "pc: %.1fs: %d states (%.0f/s), %d transitions (%.0f/s), frontier %.0f, \
         steal %.0f%%, %.0f B/state, heap %.1f MB@."
        x.elapsed_s x.states x.states_per_s x.transitions x.transitions_per_s
        x.frontier
        (100.0 *. x.steal_success_rate)
        x.bytes_per_state x.heap_mb;
      if x.store_mb > 0.0 then
        Fmt.epr "pc:   store: %.1f MB (%.1f B/state)@." x.store_mb
          x.store_bytes_per_state
    end

(* Provenance string recorded in counterexample artifacts, so [pc replay] /
   [pc shrink] can reload the program from the artifact alone. *)
let program_provenance file example =
  match (file, example) with
  | Some path, None -> "file:" ^ path
  | None, Some name -> "example:" ^ name
  | _ -> assert false (* load_program already rejected these *)

(* Validate a --domains / --portfolio count: die with the typed error on an
   impossible count (instead of the bare [Failure] the runtime would raise
   past its hard limit), warn when merely oversubscribing this machine. *)
let check_domain_count n =
  match P_checker.Parallel.validate_domains ~hard:true n with
  | Error e ->
    or_die (Error (Fmt.str "%a" P_checker.Parallel.pp_domains_error e))
  | Ok _ -> (
    match P_checker.Parallel.validate_domains n with
    | Ok _ -> ()
    | Error e ->
      Fmt.epr "pc: warning: %a@." P_checker.Parallel.pp_domains_error e)

(* Resolve --faults SPEC / --fault-seed N into a normalized plan: parse
   errors die with the parser's message, an all-zero spec means "no
   injection", and --fault-seed without --faults is a usage error. *)
let resolve_faults faults fault_seed =
  match faults with
  | None ->
    if fault_seed <> None then
      or_die (Error "--fault-seed requires --faults");
    None
  | Some spec -> (
    let p = or_die (P_semantics.Fault.of_string spec) in
    if P_semantics.Fault.is_none p then None
    else
      Some
        (P_semantics.Fault.with_seed (Option.value ~default:0 fault_seed) p))

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Run under a deterministic adversarial host: comma-separated \
           $(b,class=probability) fields with classes $(b,drop), $(b,dup), \
           $(b,reorder), $(b,delay), $(b,crash) and probabilities in 0..1 \
           (e.g. $(b,drop=0.05,crash=0.01)). Every injection is a pure \
           function of $(b,--fault-seed) and a fault-point counter, so runs \
           are reproducible and counterexamples replay and shrink.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for the $(b,--faults) schedule (default 0). Recorded in any \
           counterexample artifact.")

let default_ce_path file example =
  match (file, example) with
  | Some path, None -> Filename.remove_extension path ^ ".counterexample.jsonl"
  | None, Some name -> name ^ ".counterexample.jsonl"
  | _ -> "counterexample.jsonl"

let run_verify file example delay_bound max_states liveness show_trace domains
    fingerprint store store_capacity reduce stats_json trace_out profile_out
    progress seed faults fault_seed ce_out no_ce =
  (match (seed, domains) with
  | Some _, Some _ -> or_die (Error "--seed is not supported with --domains")
  | _ -> ());
  Option.iter check_domain_count domains;
  let program = or_die (load_program file example) in
  let fingerprint = or_die (P_checker.Fingerprint.mode_of_string fingerprint) in
  let store = or_die (P_checker.State_store.kind_of_string store) in
  let reduce = or_die (P_checker.Reduce.of_string reduce) in
  let faults = resolve_faults faults fault_seed in
  (match faults with
  | Some _ when liveness ->
    or_die (Error "--faults is not supported with --liveness")
  | Some _ when reduce.P_checker.Reduce.por ->
    or_die
      (Error
         "--faults is not compatible with sleep-set POR (--reduce por): \
          injected faults consume schedule-dependent fault indices, so \
          commuted blocks are no longer equivalent; use --reduce none")
  | _ -> ());
  (match store_capacity with
  | Some c when c < 1 -> or_die (Error "--store-capacity must be positive")
  | Some _ when store = P_checker.State_store.Exact ->
    or_die (Error "--store-capacity only applies to --store compact")
  | _ -> ());
  let metrics =
    match stats_json with None -> None | Some _ -> Some (P_obs.Metrics.create ())
  in
  let stats_oc = Option.map open_out_or_die stats_json in
  let trace_oc = Option.map open_out_or_die trace_out in
  let profile_oc = Option.map open_out_or_die profile_out in
  let sink =
    match trace_oc with None -> P_obs.Sink.null | Some oc -> P_obs.Sink.chrome oc
  in
  (* --profile turns on the per-domain phase profiler (spans render in the
     --trace-out timeline, exact totals in --stats-json) and the telemetry
     sampler whose JSONL time series goes to the --profile file itself;
     --progress reuses the same sampler for its heartbeat *)
  let profiler =
    match profile_oc with
    | None -> P_obs.Profile.null
    | Some _ ->
      P_obs.Profile.create ~workers:(Option.value ~default:1 domains) ()
  in
  let telemetry =
    if profile_oc = None && not progress then P_obs.Telemetry.null
    else
      P_obs.Telemetry.create
        ?sink:(Option.map P_obs.Sink.jsonl profile_oc)
        ?on_sample:(if progress then Some (make_heartbeat ()) else None)
        ()
  in
  let telemetry_sink_close () =
    match profile_oc with
    | None -> ()
    | Some oc ->
      flush oc;
      close_out oc
  in
  let instr =
    P_checker.Search.instr ?metrics ~sink ~profile:profiler ~telemetry ()
  in
  P_obs.Profile.start_gc profiler;
  let report =
    P_checker.Verifier.verify ~delay_bound ~max_states ~liveness ~fingerprint
      ~store ?store_capacity ~reduce ?seed ?domains ?faults ~instr program
  in
  P_obs.Telemetry.force telemetry;
  telemetry_sink_close ();
  (* profiler lanes land in the same Chrome trace as the engine spans *)
  P_obs.Profile.flush profiler sink;
  (* the counterexample (when any) rides along in the trace file *)
  (match report.safety with
  | Some { verdict = P_checker.Search.Error_found ce; _ }
    when P_obs.Sink.enabled sink -> P_obs.Sem_trace.emit sink ce.trace
  | _ -> ());
  P_obs.Sink.close sink;
  Option.iter close_out trace_oc;
  (match stats_oc with
  | None -> ()
  | Some oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        P_checker.Obs_report.write_channel oc
          (P_checker.Obs_report.json_of_report ?metrics ~profile:profiler report)));
  Fmt.pr "%a" P_checker.Verifier.pp_report report;
  (match report.safety with
  | Some { verdict = P_checker.Search.Error_found ce; _ } when show_trace ->
    Fmt.pr "counterexample trace:@.%a@." P_semantics.Trace.pp ce.trace
  | _ -> ());
  (* every failing verify leaves a replayable artifact behind *)
  (match report.safety with
  | Some { verdict = P_checker.Search.Error_found ce; _ } when not no_ce -> (
    let path = Option.value ce_out ~default:(default_ce_path file example) in
    let engine = match domains with None -> "delay_bounded" | Some _ -> "parallel" in
    match P_static.Check.run program with
    | { diagnostics = _ :: _; _ } -> ()
    | { symtab; _ } -> (
      match
        P_checker.Replay.record_counterexample
          ~program:(program_provenance file example)
          ?seed ?faults ~engine symtab ce
      with
      | Ok tf ->
        P_checker.Trace_file.write_file path tf;
        Fmt.pr "counterexample: %s (inspect with: pc replay %s, minimize with: pc shrink %s)@."
          path path path
      | Error e -> Fmt.epr "pc: could not record the counterexample: %s@." e))
  | _ -> ());
  match P_checker.Verifier.outcome report with
  | Clean -> ()
  | Failed -> exit 1
  | Inconclusive -> exit 3

let verify_cmd =
  let delay =
    Arg.(value & opt int 2 & info [ "d"; "delay-bound" ] ~doc:"Delay bound for the scheduler.")
  in
  let max_states =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc:"State budget for the search.")
  in
  let liveness =
    Arg.(value & flag & info [ "liveness" ] ~doc:"Also run the responsiveness (liveness) checks.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the counterexample trace.") in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Use the multicore exploration engine with N domains.")
  in
  let fingerprint =
    Arg.(
      value
      & opt string "incremental"
      & info [ "fingerprint" ] ~docv:"MODE"
          ~doc:
            "State fingerprinting: $(b,incremental) (per-machine digest \
             cache, the default) or $(b,paranoid) (also re-encode every \
             configuration and report any disagreement in the \
             checker.fp_collisions metric). Verdicts and state counts are \
             identical in both modes.")
  in
  let store =
    Arg.(
      value
      & opt string "exact"
      & info [ "store" ] ~docv:"KIND"
          ~doc:
            "Seen-set representation: $(b,exact) (string-keyed hashtable, \
             ground truth, the default) or $(b,compact) (open-addressing \
             64-bit fingerprint arena off the OCaml heap \u{2014} \u{2265}4x \
             smaller, lock-free CAS claims under $(b,--domains), merges \
             distinct states only on a 47-bit tag collision).")
  in
  let store_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "store-capacity" ] ~docv:"N"
          ~doc:
            "Arena size in slots for $(b,--store compact); rounded up to a \
             power of two. Default: sized from $(b,--max-states).")
  in
  let reduce =
    Arg.(
      value
      & opt string "none"
      & info [ "reduce" ] ~docv:"MODE"
          ~doc:
            "State-space reduction: $(b,none) (the default) or $(b,por) \
             (sleep-set partial-order reduction over scheduler choices). \
             Reduced runs reach the same verdict with never more states; \
             validate a specific program with $(b,pc replay \
             --differential) on the reduced counterexample.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the verification report and a metrics dump as JSON to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file (openable in Perfetto or \
             chrome://tracing) with engine spans and the counterexample trace.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Enable the per-domain phase profiler and write the telemetry \
             time series (states/s, transitions/s, frontier occupancy, steal \
             success rate, bytes/state) as JSONL to $(docv). Phase spans \
             (expand, steal, barrier_wait, shard_lock, gc) render as \
             per-worker lanes in the $(b,--trace-out) Chrome trace; exact \
             per-phase totals are embedded in $(b,--stats-json).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a heartbeat (live states/s, transitions/s, frontier, \
             steal success, bytes/state, heap) to stderr about once a second.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Sample ghost $(b,*) choices from a PRNG seeded with $(docv) \
             instead of enumerating them. The seed is recorded in the \
             report, the stats JSON, and any counterexample artifact, so a \
             sampled failure is reproducible.")
  in
  let ce_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "ce-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the counterexample trace artifact when the \
             search fails (default: derived from the program name, \
             $(b,NAME.counterexample.jsonl)).")
  in
  let no_ce =
    Arg.(
      value & flag
      & info [ "no-ce" ] ~doc:"Do not write a counterexample trace artifact on failure.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Systematic testing with the causal delay-bounded scheduler."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "a check failed: a static error, a counterexample or a \
               liveness violation."
         :: Cmd.Exit.info 3
              ~doc:
                "inconclusive: no error was found, but a state budget ran \
                 out before the search finished (raise $(b,--max-states)) \
                 or, with $(b,--liveness), before the liveness graph was \
                 complete."
         :: Cmd.Exit.defaults))
    Term.(
      const run_verify $ file_arg $ example_arg $ delay $ max_states $ liveness $ trace
      $ domains $ fingerprint $ store $ store_capacity $ reduce $ stats_json
      $ trace_out $ profile_out $ progress $ seed $ faults_arg $ fault_seed_arg
      $ ce_out $ no_ce)

(* ---------------- random ---------------- *)

let run_random file example walks max_blocks seed portfolio show_trace ce_out
    no_ce =
  Option.iter check_domain_count portfolio;
  let program = or_die (load_program file example) in
  match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | { symtab; _ } -> (
    let r =
      match portfolio with
      | None -> P_checker.Random_walk.run ~walks ~max_blocks ~seed symtab
      | Some domains ->
        P_checker.Random_walk.run_portfolio ~walks ~max_blocks ~seed ~domains
          symtab
    in
    Fmt.pr "random walks: %a@." P_checker.Random_walk.pp_result r;
    match r.first_error with
    | Some f ->
      if show_trace then
        Fmt.pr "first failing trace:@.%a@." P_semantics.Trace.pp f.trace;
      (if not no_ce then
         let path = Option.value ce_out ~default:(default_ce_path file example) in
         match
           P_checker.Replay.record
             ~program:(program_provenance file example)
             ~seed:f.walk_seed ~engine:"random_walk" symtab f.schedule
         with
         | Ok tf ->
           P_checker.Trace_file.write_file path tf;
           Fmt.pr
             "counterexample: %s (inspect with: pc replay %s, minimize with: pc shrink %s)@."
             path path path
         | Error e -> Fmt.epr "pc: could not record the counterexample: %s@." e);
      exit 1
    | None -> ())

let random_cmd =
  let walks = Arg.(value & opt int 100 & info [ "walks" ] ~doc:"Number of random schedules.") in
  let max_blocks =
    Arg.(value & opt int 1_000 & info [ "max-blocks" ] ~doc:"Atomic-block budget per walk.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let portfolio =
    Arg.(
      value
      & opt (some int) None
      & info [ "portfolio" ] ~docv:"N"
          ~doc:
            "Race the seeded walks across $(docv) domains sharing only a \
             found-it flag. Per-walk seeds are derived exactly as in the \
             sequential mode, so the winning walk replays and shrinks \
             unchanged.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the first failing trace.") in
  let ce_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "ce-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the first failing walk's trace artifact \
             (default: derived from the program name).")
  in
  let no_ce =
    Arg.(
      value & flag
      & info [ "no-ce" ] ~doc:"Do not write a counterexample trace artifact on failure.")
  in
  Cmd.v
    (Cmd.info "random"
       ~doc:"Random-walk testing (the baseline the systematic checker is compared to).")
    Term.(
      const run_random $ file_arg $ example_arg $ walks $ max_blocks $ seed
      $ portfolio $ trace $ ce_out $ no_ce)

(* ---------------- simulate ---------------- *)

(* --shards N: execute the compiled tables on the sharded serving
   runtime instead of the semantics interpreter — the production
   execution path under a simulation driver. Full tables (ghosts kept),
   so closed programs drive themselves; [*] choices resolve from --seed.
   The --max-blocks budget maps onto events processed, polled against the
   racy shard counters. *)
let run_simulate_sharded program shards max_blocks seed faults stats_json =
  let module Shard = P_runtime.Shard in
  let module Exec = P_runtime.Exec in
  (match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | _ -> ());
  let driver = P_compile.Compile.compile_full program in
  let metrics =
    match stats_json with None -> None | Some _ -> Some (P_obs.Metrics.create ())
  in
  let stats_oc = Option.map open_out_or_die stats_json in
  let t = Shard.create ~shards ?seed ?faults ?metrics driver in
  (* stub every declared foreign with the ⊥ the interpreter would produce
     for a model-free foreign (the differential harness's convention) *)
  Array.iter
    (fun (mt : P_compile.Tables.machine_table) ->
      Array.iter
        (fun (fs : P_compile.Tables.foreign_sig) ->
          Shard.register_foreign t fs.fs_name (fun _ _ -> P_runtime.Rt_value.Null))
        mt.mt_foreigns)
    driver.P_compile.Tables.dr_machines;
  let main_ty =
    match driver.P_compile.Tables.dr_main with
    | Some ty -> ty
    | None -> or_die (Error "program has no main machine")
  in
  let main_name = driver.P_compile.Tables.dr_machines.(main_ty).mt_name in
  let main = Shard.create_machine t main_name in
  (* apply the trailing main-initialization of Figure 3 before the entry
     statement runs (the shards are not started yet) *)
  let main_rt = Shard.exec_of t (Shard.home t main) in
  (match Exec.find_instance main_rt main with
  | None -> assert false
  | Some ctx ->
    List.iter
      (fun (x, e) -> Exec.assign ctx x (Exec.eval main_rt ctx e))
      driver.P_compile.Tables.dr_main_init);
  Shard.start t;
  let rec drive () =
    if Shard.events_processed t >= max_blocks then false
    else if Shard.quiesce ~timeout_s:0.1 t then true
    else drive ()
  in
  let quiescent = drive () in
  let outcome =
    match Shard.stop t with
    | st -> Ok st
    | exception Exec.Runtime_error msg -> Error msg
  in
  let st = match outcome with Ok st -> st | Error _ -> Shard.stats t in
  (match stats_oc with
  | None -> ()
  | Some oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let fields =
          [ ("schema", P_obs.Json.String "p-sim-stats/1");
            ("machine", P_obs.Machine_info.json ());
            ("shards", P_obs.Json.Int st.Shard.sh_shards);
            ("quiescent", P_obs.Json.Bool quiescent);
            ( "status",
              P_obs.Json.String
                (match outcome with Ok _ -> "ok" | Error m -> m) );
            ("machines", P_obs.Json.Int st.Shard.sh_machines);
            ("events", P_obs.Json.Int st.Shard.sh_dequeues);
            ("sends", P_obs.Json.Int st.Shard.sh_sends);
            ("spawns", P_obs.Json.Int st.Shard.sh_spawns);
            ("activations", P_obs.Json.Int st.Shard.sh_activations);
            ("yields", P_obs.Json.Int st.Shard.sh_yields);
            ("shed_mailbox", P_obs.Json.Int st.Shard.sh_shed_mailbox);
            ("shed_ingress", P_obs.Json.Int st.Shard.sh_shed_ingress);
            ("dead_letters", P_obs.Json.Int st.Shard.sh_dead_letters);
            ("xfer_batches", P_obs.Json.Int st.Shard.sh_xfer_batches);
            ("xfer_msgs", P_obs.Json.Int st.Shard.sh_xfer_msgs);
            ("ingress_batches", P_obs.Json.Int st.Shard.sh_ingress_batches);
            ("ingress_msgs", P_obs.Json.Int st.Shard.sh_ingress_msgs);
            ("pending", P_obs.Json.Int st.Shard.sh_pending) ]
        in
        let fields =
          match faults with
          | None -> fields
          | Some p ->
            fields
            @ [ ( "faults",
                  P_obs.Json.Obj
                    [ ("spec", P_obs.Json.String (P_semantics.Fault.to_string p));
                      ("seed", P_obs.Json.Int p.P_semantics.Fault.seed);
                      ( "injected",
                        P_obs.Json.Obj
                          [ ("drops", P_obs.Json.Int st.Shard.sh_fault_drops);
                            ("dups", P_obs.Json.Int st.Shard.sh_fault_dups);
                            ("reorders", P_obs.Json.Int st.Shard.sh_fault_reorders);
                            ("crash_restarts", P_obs.Json.Int st.Shard.sh_crash_restarts)
                          ] ) ] ) ]
        in
        let fields =
          match metrics with
          | None -> fields
          | Some reg -> fields @ [ ("metrics", P_obs.Metrics.dump reg) ]
        in
        output_string oc (P_obs.Json.to_string_pretty (P_obs.Json.Obj fields));
        output_char oc '\n'));
  (match outcome with
  | Ok _ ->
    Fmt.pr
      "sharded simulation: %s after %d event(s) on %d shard(s) (%d machine(s) \
       live, %d send(s), %d spawn(s), %d cross-shard message(s), %d shed)@."
      (if quiescent then "quiescent" else "block budget exhausted")
      st.Shard.sh_dequeues st.Shard.sh_shards st.Shard.sh_machines
      st.Shard.sh_sends st.Shard.sh_spawns st.Shard.sh_xfer_msgs
      (st.Shard.sh_shed_mailbox + st.Shard.sh_shed_ingress);
    if faults <> None then begin
      let drops = st.Shard.sh_fault_drops and dups = st.Shard.sh_fault_dups in
      let reorders = st.Shard.sh_fault_reorders
      and crashes = st.Shard.sh_crash_restarts in
      Fmt.pr
        "adversarial host: %d faults (%d dropped, %d duplicated, %d reordered, \
         %d crash-restarts)@."
        (drops + dups + reorders + crashes)
        drops dups reorders crashes
    end
  | Error msg ->
    Fmt.pr "sharded simulation: error: %s@." msg;
    exit 1)

let run_simulate file example max_blocks seed faults fault_seed show_trace
    trace_out shards stats_json =
  let faults = resolve_faults faults fault_seed in
  match shards with
  | Some n when n >= 1 ->
    if show_trace || trace_out <> None then
      or_die (Error "--trace/--trace-out are not supported with --shards");
    let program = or_die (load_program file example) in
    run_simulate_sharded program n max_blocks seed faults stats_json
  | Some _ -> or_die (Error "--shards must be at least 1")
  | None ->
  let program = or_die (load_program file example) in
  match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | { symtab; _ } ->
    let policy =
      match seed with
      | None -> P_semantics.Simulate.policy_const false
      | Some s -> P_semantics.Simulate.policy_seeded s
    in
    let r = P_semantics.Simulate.run ~max_blocks ~policy ?faults symtab in
    (match trace_out with
    | None -> ()
    | Some path ->
      let oc = open_out_or_die path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let sink = P_obs.Sink.chrome oc in
          P_obs.Sem_trace.emit sink r.trace;
          P_obs.Sink.close sink));
    if show_trace then Fmt.pr "%a@." P_semantics.Trace.pp r.trace;
    Fmt.pr "simulation: %a after %d atomic blocks@." P_semantics.Simulate.pp_status
      r.status r.blocks;
    (match r.status with P_semantics.Simulate.Error _ -> exit 1 | _ -> ())

let simulate_cmd =
  let max_blocks =
    Arg.(value & opt int 10_000 & info [ "max-blocks" ] ~doc:"Atomic-block budget.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Resolve ghost choices pseudo-randomly from this seed.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the execution trace.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the execution trace as Chrome trace_event JSON to $(docv).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Execute on the sharded serving runtime with N \
             scheduler domains instead of the semantics interpreter \
             (ghost choices need $(b,--seed); the block budget counts \
             events processed).")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "With $(b,--shards): write runtime counters (events, sends, \
             sheds, cross-shard traffic, the runtime.* metrics) as JSON \
             to $(docv).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Deterministic causal (d=0) execution of the closed program.")
    Term.(
      const run_simulate $ file_arg $ example_arg $ max_blocks $ seed
      $ faults_arg $ fault_seed_arg $ trace $ trace_out $ shards $ stats_json)

(* ---------------- erase / compile / print ---------------- *)

let run_erase file example =
  let program = or_die (load_program file example) in
  match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | { symtab; _ } ->
    print_string (P_syntax.Pretty.program_to_string (P_static.Erasure.erase symtab))

let erase_cmd =
  Cmd.v
    (Cmd.info "erase" ~doc:"Print the compiled program after ghost erasure.")
    Term.(const run_erase $ file_arg $ example_arg)

let run_compile file example output =
  let program = or_die (load_program file example) in
  match P_compile.Compile.to_c program with
  | c -> (
    match output with
    | None -> print_string c
    | Some path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc c);
      Fmt.pr "wrote %s (%d bytes)@." path (String.length c))
  | exception P_compile.Compile.Error msg ->
    Fmt.epr "pc: %s@." msg;
    exit 1

let compile_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output C file.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile to table-driven C source (section 4 of the paper).")
    Term.(const run_compile $ file_arg $ example_arg $ output)

let run_graph file example machine_filter =
  let program = or_die (load_program file example) in
  match machine_filter with
  | None -> print_string (P_compile.Dot_emit.emit program)
  | Some name -> (
    match P_syntax.Ast.find_machine program (P_syntax.Names.Machine.of_string name) with
    | Some m -> print_string (P_compile.Dot_emit.emit_one m)
    | None ->
      Fmt.epr "pc: no machine named %s@." name;
      exit 2)

let graph_cmd =
  let machine =
    Arg.(
      value
      & opt (some string) None
      & info [ "machine" ] ~docv:"NAME" ~doc:"Render only this machine.")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Render the state machines as a Graphviz (DOT) diagram.")
    Term.(const run_graph $ file_arg $ example_arg $ machine)

let run_coverage file example delay_bound max_states include_ghost =
  let program = or_die (load_program file example) in
  match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | { symtab; _ } ->
    let cov = P_checker.Coverage.of_exploration ~delay_bound ~max_states symtab in
    Fmt.pr "%a@." P_checker.Coverage.pp_report
      (P_checker.Coverage.report ~include_ghost cov)

let coverage_cmd =
  let delay =
    Arg.(value & opt int 2 & info [ "d"; "delay-bound" ] ~doc:"Delay bound for the sweep.")
  in
  let max_states =
    Arg.(value & opt int 100_000 & info [ "max-states" ] ~doc:"State budget.")
  in
  let ghost = Arg.(value & flag & info [ "ghost" ] ~doc:"Include ghost machines.") in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Report which states and handlers the bounded exploration exercises.")
    Term.(const run_coverage $ file_arg $ example_arg $ delay $ max_states $ ghost)

(* ---------------- replay / shrink ---------------- *)

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"Counterexample trace artifact (JSONL, from pc verify).")

let program_override =
  Arg.(
    value
    & opt (some file) None
    & info [ "program" ] ~docv:"FILE"
        ~doc:
          "Parse $(docv) instead of the program recorded in the trace's \
           provenance header.")

let load_trace path = or_die (P_checker.Trace_file.read_file path)

(* Resolve the program a trace belongs to: explicit --program/--example
   override the artifact's provenance header. *)
let program_of_trace (t : P_checker.Trace_file.t) file example =
  match (file, example) with
  | Some _, _ | _, Some _ -> or_die (load_program file example)
  | None, None -> (
    let strip prefix p =
      if String.starts_with ~prefix p then
        Some (String.sub p (String.length prefix) (String.length p - String.length prefix))
      else None
    in
    match t.program with
    | None ->
      or_die (Error "trace does not record its program; give --program or --example")
    | Some p -> (
      match (strip "example:" p, strip "file:" p) with
      | Some name, _ -> or_die (load_program None (Some name))
      | _, Some path -> or_die (load_program (Some path) None)
      | None, None ->
        or_die
          (Error
             (Fmt.str "unrecognised program provenance %S; give --program or --example" p))))

let symtab_of_program program =
  match P_static.Check.run program with
  | { diagnostics = (_ :: _) as ds; _ } ->
    Fmt.pr "%a@." P_static.Check.pp_diagnostics ds;
    exit 1
  | { symtab; _ } -> symtab

let run_replay trace_path file example no_digests show_trace differential =
  let t = load_trace trace_path in
  let symtab = symtab_of_program (program_of_trace t file example) in
  Fmt.pr "replaying %s: %a@." trace_path P_checker.Trace_file.pp_summary t;
  let r = P_checker.Replay.run ~check_digests:(not no_digests) symtab t in
  if show_trace then Fmt.pr "%a@." P_semantics.Trace.pp r.items;
  Fmt.pr "%a@." P_checker.Replay.pp_outcome r.outcome;
  (match r.outcome with P_checker.Replay.Diverged _ -> exit 1 | _ -> ());
  if differential then begin
    match P_checker.Differential.check_trace symtab t with
    | Error e ->
      Fmt.epr "pc: differential: %s@." e;
      exit 1
    | Ok o ->
      Fmt.pr "differential: %a@." P_checker.Differential.pp_outcome o;
      (match o with P_checker.Differential.Mismatch _ -> exit 1 | _ -> ())
  end

let replay_cmd =
  let no_digests =
    Arg.(
      value & flag
      & info [ "no-digests" ]
          ~doc:
            "Skip the per-step configuration fingerprint checks (verdict \
             reproduction only).")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the replayed trace.") in
  let differential =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Additionally drive the schedule through the compiled runtime \
             tables and cross-check every machine state against the \
             interpreter.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded counterexample deterministically, checking \
          the verdict and every configuration fingerprint.")
    Term.(
      const run_replay $ trace_arg $ program_override $ example_arg $ no_digests
      $ trace $ differential)

let run_shrink trace_path file example output =
  let t = load_trace trace_path in
  let symtab = symtab_of_program (program_of_trace t file example) in
  Fmt.pr "shrinking %s: %a@." trace_path P_checker.Trace_file.pp_summary t;
  match P_checker.Shrink.run symtab t with
  | Error e ->
    Fmt.epr "pc: %s@." e;
    exit 1
  | Ok (shrunk, stats) ->
    let out =
      match output with
      | Some o -> o
      | None -> Filename.remove_extension trace_path ^ ".min.jsonl"
    in
    P_checker.Trace_file.write_file out shrunk;
    Fmt.pr "shrink: %a@." P_checker.Shrink.pp_stats stats;
    Fmt.pr "wrote %s (replay with: pc replay %s)@." out out

let shrink_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output trace file (default: TRACE with a .min.jsonl suffix).")
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a counterexample trace with delta debugging: remove \
          schedule steps and simplify ghost choices while the same error \
          still reproduces.")
    Term.(const run_shrink $ trace_arg $ program_override $ example_arg $ output)

let run_print file example =
  let program = or_die (load_program file example) in
  print_string (P_syntax.Pretty.program_to_string program)

let print_cmd =
  Cmd.v
    (Cmd.info "print" ~doc:"Parse and pretty-print the program.")
    Term.(const run_print $ file_arg $ example_arg)

let () =
  let info = Cmd.info "pc" ~version:"1.0.0" ~doc:"The P language compiler and verifier." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; verify_cmd; replay_cmd; shrink_cmd; simulate_cmd; erase_cmd;
            compile_cmd; print_cmd; graph_cmd; coverage_cmd; random_cmd ]))
