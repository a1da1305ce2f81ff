(* The end-to-end benchmark: one workload per process.

   Usage:
     e2e.exe run WORKLOAD [--seed N] [--seconds S] [--trace FILE] [--json FILE]
     e2e.exe --smoke

   A run prints progress lines, then one JSON object as its last line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Without --trace the metrics are the end-to-end ones; with --trace they
   are the per-layer ones, and sampled spans go to FILE as a Chrome trace.
   --json FILE also writes the result with the machine block. The exit
   code is 1 when a correctness check failed, 2 on bad arguments.
   --smoke runs every workload at tiny sizes, timed and traced. *)

type workload =
  | Check of (smoke:bool -> Checker.workload)
  | Serve of (smoke:bool -> Serving.workload)

let workloads =
  [ ("check-german", Check Checker.german);
    ("check-usb", Check Checker.usb);
    ("check-fig8", Check Checker.fig8);
    ("serve-sink", Serve Serving.sink);
    ("serve-echo", Serve Serving.echo) ]

(* Every workload reports every per-layer metric; a layer the workload
   does not run reads 0. *)
let per_layer =
  [ ("trace.ns_per_op", "ns"); ("trace.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio"); ("gc.alloc_bytes_per_op", "B");
    ("Step.busy_frac", "ratio"); ("Step.moves_per_op", "ratio");
    ("Step.resolutions_per_move", "ratio"); ("Fingerprint.busy_frac", "ratio");
    ("Fingerprint.keys_per_op", "ratio"); ("Fingerprint.memo_hit_ratio", "ratio");
    ("State_store.busy_frac", "ratio"); ("State_store.dup_ratio", "ratio");
    ("State_store.reexpands", "count"); ("State_store.bytes_per_state", "B");
    ("Engine.frontier_busy_frac", "ratio"); ("Replay.busy_frac", "ratio");
    ("Shard.post_busy_frac", "ratio"); ("Shard.ingress_msgs_per_batch", "ratio");
    ("Sched.post_busy_frac", "ratio"); ("Sched.activation_busy_frac", "ratio");
    ("Sched.activations_per_op", "ratio"); ("Exec.dispatch_busy_frac", "ratio");
    ("Exec.dequeues_per_op", "ratio"); ("Context.enqueue_busy_frac", "ratio");
    ("Context.dequeue_busy_frac", "ratio") ]

let complete (r : Measure.result) =
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some m -> m
        | None -> (name, 0.0, unit))
      per_layer
  in
  assert (List.for_all (fun (n, _, _) -> List.mem_assoc n per_layer) r.metrics);
  { r with metrics }

let run_one ~smoke ~seed ~seconds ~trace w =
  match (w, trace) with
  | Check mk, None -> Checker.run (mk ~smoke) ~seconds
  | Check mk, Some f -> complete (Checker.run_traced (mk ~smoke) ~trace_file:f)
  | Serve mk, None -> Serving.run (mk ~smoke) ~seed ~seconds
  | Serve mk, Some f -> complete (Serving.run_traced (mk ~smoke) ~seed ~trace_file:f)

let report (r : Measure.result) =
  List.iter (fun m -> prerr_endline ("FAIL: " ^ m)) r.failures;
  print_endline (P_obs.Json.to_string (Measure.result_json r))

let usage () =
  prerr_endline
    "usage: e2e.exe run WORKLOAD [--seed N] [--seconds S] [--trace FILE] [--json FILE]\n\
    \       e2e.exe --smoke";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let smoke () =
  let ok =
    List.for_all
      (fun (name, w) ->
        List.for_all
          (fun trace ->
            Printf.printf "smoke %s%s\n%!" name (if trace = None then "" else " (traced)");
            let seconds = match w with Check _ -> 0.0 | Serve _ -> 0.2 in
            let r = run_one ~smoke:true ~seed:1 ~seconds ~trace w in
            report r;
            r.correct)
          [ None; Some Filename.null ])
      workloads
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] -> smoke ()
  | "run" :: name :: opts -> (
    let rec parse acc = function
      | [] -> acc
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((k, v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] opts in
    let num conv k default =
      match List.assoc_opt k opts with
      | None -> default
      | Some v -> ( match conv v with Some x -> x | None -> usage ())
    in
    let seed = num int_of_string_opt "--seed" 1 in
    let seconds = num float_of_string_opt "--seconds" 20.0 in
    let trace = List.assoc_opt "--trace" opts and json = List.assoc_opt "--json" opts in
    if List.exists (fun (k, _) -> not (List.mem k [ "--seed"; "--seconds"; "--trace"; "--json" ])) opts
       || seconds <= 0.0
    then usage ();
    match List.assoc_opt name workloads with
    | None -> usage ()
    | Some w ->
      let r = run_one ~smoke:false ~seed ~seconds ~trace w in
      Option.iter
        (fun path ->
          let doc =
            P_obs.Json.Obj
              [ ("workload", P_obs.Json.String name);
                ("seed", P_obs.Json.Int seed);
                ("seconds", P_obs.Json.Float seconds);
                ("traced", P_obs.Json.Bool (trace <> None));
                ("result", Measure.result_json r);
                ("failures", P_obs.Json.List (List.map (fun s -> P_obs.Json.String s) r.failures));
                ("machine", P_obs.Machine_info.json ()) ]
          in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (P_obs.Json.to_string_pretty doc)))
        json;
      report r;
      exit (if r.correct then 0 else 1))
  | _ -> usage ()
