(* The check-* workloads: delay-bounded exploration of fixed P programs.

   The timed runs call [Delay_bounded.explore], the engine users run. The
   traced run explores again through [mirror], a copy of [Engine.run]'s
   breadth-first loop for the delaying scheduler written from the
   checker's public calls, so the time of each call can be charged to
   the layer it enters: [Step] (block interpretation, via
   [Search.resolutions]), [Fingerprint] (state keys), [State_store]
   (seen-set claims), [Engine] (scheduler moves and the frontier queue)
   and [Replay] (re-executing the counterexample). The mirror must reach
   the engine's (verdict, states, transitions) exactly, or the run
   fails. *)

open P_checker
open Measure
module Step = P_semantics.Step
module Mid = P_semantics.Mid
module Errors = P_semantics.Errors

(* The exact outcome one program's exploration must reproduce. *)
type expect = { verdict : string; states : int; transitions : int }

type subject = {
  label : string;
  program : unit -> P_syntax.Ast.program;
  expect : expect;
}

(* [smoke] marks the tiny CI sizes, whose traced runs are too short for
   the layer times to reconcile with the wall time. *)
type workload = { subjects : subject list; delay_bound : int; max_states : int; smoke : bool }

let german ~smoke =
  let n, requests, d, expect =
    if smoke then (2, 1, 1, { verdict = "ok"; states = 169; transitions = 204 })
    else (3, 4, 2, { verdict = "ok"; states = 228_829; transitions = 368_369 })
  in
  { subjects =
      [ { label = "german"; program = P_examples_lib.German.program ~n ~requests; expect } ];
    delay_bound = d;
    max_states = 1_000_000;
    smoke }

(* The stack as shipped fails: the hub's count of enabled ports goes out
   of range (an assertion) at depth 84. A fix to the model changes these
   counts. *)
let usb ~smoke =
  { subjects =
      [ { label = "usb-stack";
          program =
            (fun () -> if smoke then P_usb.Stack.buggy_program () else P_usb.Stack.program ());
          expect =
            (if smoke then
               { verdict = "error@28: machine Hub #1: unhandled event PortDown";
                 states = 3_064;
                 transitions = 3_610 }
             else
               { verdict = "error@84: machine Hub #1: assertion failure at <builtin>";
                 states = 613_860;
                 transitions = 863_790 }) } ];
    delay_bound = 0;
    max_states = 1_000_000;
    smoke }

let fig8 ~smoke =
  let expect =
    (* per machine: states, transitions at the state budget *)
    if smoke then [ (2_002, 4_240); (2_000, 5_532); (2_000, 5_990); (2_001, 5_686) ]
    else [ (60_001, 136_491); (60_000, 185_307); (60_000, 229_111); (60_001, 187_251) ]
  in
  { subjects =
      List.map2
        (fun spec (states, transitions) ->
          { label = spec.P_usb.Gen.name;
            program = (fun () -> P_usb.Gen.program_of_spec spec);
            expect = { verdict = "truncated"; states; transitions } })
        P_usb.Gen.all_specs expect;
    delay_bound = 1;
    max_states = (if smoke then 2_000 else 60_000);
    smoke }

let verdict_string (r : Search.result) =
  match r.verdict with
  | Search.No_error -> if r.stats.truncated then "truncated" else "ok"
  | Search.Error_found ce -> Printf.sprintf "error@%d: %s" ce.depth (Errors.to_string ce.error)

let setup w = List.map (fun s -> (s, P_static.Check.run_exn (s.program ()))) w.subjects

(* One set-up sample: set up back to back for at least 20 ms and take the
   mean, so that a set-up of 40 us is not lost in timer and cache noise. *)
let setup_sample w =
  let t0 = now_ns () in
  let rec go n =
    ignore (setup w : _ list);
    let dt = now_ns () - t0 in
    if dt >= 20_000_000 then s_of_ns dt /. float_of_int n else go (n + 1)
  in
  go 1

(* Three set-up samples after a full collection, so that set-up does not
   pay for the garbage of the exploration before it. *)
let timed_setup w =
  Gc.full_major ();
  List.init 3 (fun _ -> setup_sample w)

let check_triple c (s : subject) ~what verdict states transitions =
  let ok =
    verdict = s.expect.verdict && states = s.expect.states
    && transitions = s.expect.transitions
  in
  check c ok "%s %s: got %s, %d states, %d transitions; expected %s, %d, %d" s.label what
    verdict states transitions s.expect.verdict s.expect.states s.expect.transitions;
  ok

(* A found counterexample must replay through the semantics to the same
   error after exactly its own number of blocks. *)
let check_replay c tab (s : subject) (r : Search.result) =
  match r.verdict with
  | Search.No_error -> true
  | Search.Error_found ce ->
    let ok =
      Replay.reproduces tab ~expected_error:(Errors.to_string ce.error) ce.schedule
      = Some ce.depth
    in
    check c ok "%s: counterexample does not replay" s.label;
    ok

(* ------------------------------------------------------------------ *)
(* Timed runs                                                          *)
(* ------------------------------------------------------------------ *)

let run w ~seconds =
  let c = checks () in
  let attempted = ref 0 and failed = ref 0 and heap_words = ref 0 in
  (* each repetition also samples set-up, so set-up is sampled across the
     run; after the exploration, whose heap peak must not depend on how
     many set-ups fit in a sample *)
  let reps =
    repeat ~seconds (fun () ->
        let tabs = setup w in
        Gc.full_major ();
        let verdict_s, explore_s, states =
          List.fold_left
            (fun (verdict_s, explore_s, states) (s, tab) ->
              incr attempted;
              let t0 = now_ns () in
              let r = Delay_bounded.explore ~delay_bound:w.delay_bound ~max_states:w.max_states tab in
              let t1 = now_ns () in
              let replayed = check_replay c tab s r in
              let t2 = now_ns () in
              let v = verdict_string r in
              let exact = check_triple c s ~what:"explore" v r.stats.states r.stats.transitions in
              if not (replayed && exact) then incr failed;
              if !attempted <= List.length tabs then
                Printf.printf "  %-10s %s, %d states, %d transitions, %.3f s\n%!" s.label v
                  r.stats.states r.stats.transitions (s_of_ns (t1 - t0));
              (verdict_s +. s_of_ns (t2 - t0), explore_s +. s_of_ns (t1 - t0), states + r.stats.states))
            (0.0, 0.0, 0) tabs
        in
        (* the peak of the first repetition, whatever the number of
           repetitions: one domain allocating deterministically, so it
           repeats exactly *)
        if !heap_words = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
        (timed_setup w, verdict_s, explore_s, states))
  in
  Printf.printf "  %d repetitions: %s s\n%!" (List.length reps)
    (String.concat ", " (List.map (fun (_, v, _, _) -> Printf.sprintf "%.3f" v) reps));
  finish c ~attempted:!attempted ~failed:!failed
    [ ("setup_s", median (List.concat_map (fun (s, _, _, _) -> s) reps), "s");
      ( "throughput_per_s",
        median (List.map (fun (_, _, e, n) -> float_of_int n /. e) reps),
        "1/s" );
      ("latency_ms", 1e3 *. median (List.map (fun (_, v, _, _) -> v) reps), "ms");
      ("heap_mb", words_mb !heap_words, "MB") ]

(* ------------------------------------------------------------------ *)
(* The traced mirror                                                   *)
(* ------------------------------------------------------------------ *)

type layer = { lname : string; mutable busy : int }

let layer lname = { lname; busy = 0 }

(* Time one call into [l]; a sampled node also records it as a span. *)
let time l ~sample f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  l.busy <- l.busy + (t1 - t0);
  if sample >= 0 then span ~id:sample ~parent:"node" l.lname t0 t1;
  r

type node = { config : P_semantics.Config.t; stack : Mid.t list; spent : int; depth : int; idx : int }

type mirrored = {
  m_verdict : string;
  m_states : int;
  m_transitions : int;
  m_schedule : (Mid.t * bool list) list;
  m_moves : int;
  m_claims : int;
  m_dups : int;
  m_reexpands : int;
  m_memo_hits : int;
  m_memo_requests : int;
  m_store_bytes : int;
}

let step_l = layer "Step.resolutions"
let fp_l = layer "Fingerprint.digest"
let store_l = layer "State_store.claim"
let frontier_l = layer "Engine.frontier"
let replay_l = layer "Replay.reproduces"

exception Found of Errors.t * int * int

(* [Engine.run] specialised to the delaying scheduler (causal stack),
   BFS, exhaustive ghost choices, the exact store and incremental
   fingerprints: the configuration [Delay_bounded.explore] runs. *)
let mirror w tab =
  let sched = Engine.stack_sched Engine.Causal in
  let fp = Fingerprint.create tab in
  let store = State_store.create ~kind:State_store.Exact ~workers:1 ~max_states:w.max_states () in
  (* edge table: how each enqueued node was reached, for the schedule *)
  let edges = ref [||] and n_edges = ref 0 in
  let add_edge e =
    if !n_edges = Array.length !edges then
      edges := Array.append !edges (Array.make (max 1024 !n_edges) e);
    !edges.(!n_edges) <- e;
    incr n_edges;
    !n_edges - 1
  in
  let key config stack = Fingerprint.digest fp config (sched.Engine.encode stack) in
  let config0, id0, _ = Step.initial_config tab in
  let stack0 = sched.Engine.init id0 in
  ignore (State_store.claim store ~worker:0 ~digest:(key config0 stack0) ~fp:0 ~spent:0 ~new_sidx:0);
  let root = add_edge (-1, id0, []) in
  let queue = Queue.create () in
  Queue.add { config = config0; stack = stack0; spent = 0; depth = 0; idx = root } queue;
  let states = ref 1 and transitions = ref 0 and truncated = ref false in
  let moves_n = ref 0 and claims = ref 0 and dups = ref 0 and reexpands = ref 0 in
  let pops = ref 0 in
  let expand node sample =
    let moves =
      time frontier_l ~sample (fun () ->
          sched.Engine.moves tab node.config node.stack ~budget_left:(w.delay_bound - node.spent))
    in
    List.iter
      (fun (_code, stack_m, mid, cost) ->
        incr moves_n;
        let rs = time step_l ~sample (fun () -> Search.resolutions ~dedup:true tab node.config mid) in
        List.iter
          (fun (r : Search.resolved) ->
            incr transitions;
            match r.outcome with
            | Step.Failed e -> raise (Found (e, add_edge (node.idx, mid, r.choices), node.depth + 1))
            | outcome -> (
              match time frontier_l ~sample (fun () -> sched.Engine.apply stack_m outcome) with
              | None -> ()
              | Some (config', stack') -> (
                let digest = time fp_l ~sample (fun () -> key config' stack') in
                let spent = node.spent + cost in
                incr claims;
                let push () =
                  time frontier_l ~sample (fun () ->
                      let idx = add_edge (node.idx, mid, r.choices) in
                      Queue.add { config = config'; stack = stack'; spent; depth = node.depth + 1; idx } queue)
                in
                match
                  time store_l ~sample (fun () ->
                      State_store.claim store ~worker:0 ~digest ~fp:0 ~spent ~new_sidx:!states)
                with
                | State_store.New ->
                  incr states;
                  push ()
                | State_store.Dup _ -> incr dups
                | State_store.Reexpand _ ->
                  incr reexpands;
                  push ()
                | State_store.Dropped -> truncated := true)))
          rs)
      moves
  in
  let schedule idx =
    let rec chain i acc =
      let parent, mid, choices = !edges.(i) in
      if parent < 0 then acc else chain parent ((mid, choices) :: acc)
    in
    chain idx []
  in
  let verdict, sched_ce =
    try
      while not (Queue.is_empty queue) do
        if !states >= w.max_states then begin
          truncated := true;
          Queue.clear queue
        end
        else begin
          let sample = if !pops mod sample_every = 0 then !pops else -1 in
          incr pops;
          let t0 = now_ns () in
          let node = time frontier_l ~sample (fun () -> Queue.pop queue) in
          expand node sample;
          if sample >= 0 then span ~id:sample ~parent:"" "node" t0 (now_ns ())
        end
      done;
      ((if !truncated then "truncated" else "ok"), [])
    with Found (e, idx, depth) ->
      let sch = schedule idx in
      let ok =
        time replay_l ~sample:(-1) (fun () ->
            Replay.reproduces tab ~expected_error:(Errors.to_string e) sch)
        = Some depth
      in
      ( (if ok then Printf.sprintf "error@%d: %s" depth (Errors.to_string e)
         else "error replay diverged"),
        sch )
  in
  { m_verdict = verdict;
    m_states = !states;
    m_transitions = !transitions;
    m_schedule = sched_ce;
    m_moves = !moves_n;
    m_claims = !claims;
    m_dups = !dups;
    m_reexpands = !reexpands;
    m_memo_hits = Fingerprint.hits fp;
    m_memo_requests = Fingerprint.requests fp;
    m_store_bytes = (State_store.summary store).State_store.s_bytes }

let layers = [ step_l; fp_l; store_l; frontier_l; replay_l ]

let run_traced w ~trace_file =
  let c = checks () in
  List.iter (fun l -> l.busy <- 0) layers;
  spans := [];
  let tabs = setup w in
  let engine_ns = ref 0 and mirror_ns = ref 0 and alloc = ref 0.0 and states = ref 0 in
  let failed = ref 0 in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 in
  let mirrored =
    List.map
      (fun (s, tab) ->
        let failures_before = List.length c.failed_checks in
        let explore () =
          Gc.full_major ();
          Delay_bounded.explore ~delay_bound:w.delay_bound ~max_states:w.max_states tab
        in
        (* the first exploration grows the heap; the two timed ones reuse it *)
        let r = explore () in
        let v = verdict_string r in
        ignore (check_triple c s ~what:"engine" v r.stats.states r.stats.transitions : bool);
        Gc.full_major ();
        let t1 = now_ns () in
        let m = mirror w tab in
        let traced = now_ns () - t1 in
        mirror_ns := !mirror_ns + traced;
        let a0 = allocated_bytes () in
        let t0 = now_ns () in
        ignore (explore () : Search.result);
        let engine = now_ns () - t0 in
        engine_ns := !engine_ns + engine;
        alloc := !alloc +. (allocated_bytes () -. a0);
        states := !states + r.stats.states;
        check c
          (m.m_verdict = v && m.m_states = r.stats.states
          && m.m_transitions = r.stats.transitions)
          "%s: mirror got %s, %d, %d; engine %s, %d, %d" s.label m.m_verdict m.m_states
          m.m_transitions v r.stats.states r.stats.transitions;
        (match r.verdict with
        | Search.Error_found ce ->
          check c
            (List.equal (fun (a, x) (b, y) -> Mid.equal a b && x = y) ce.schedule m.m_schedule)
            "%s: mirror counterexample schedule differs from the engine's" s.label
        | Search.No_error -> ());
        Printf.printf "  %-10s %s, %d states, %d transitions (engine %.3f s, traced %.3f s)\n%!"
          s.label m.m_verdict m.m_states m.m_transitions (s_of_ns engine) (s_of_ns traced);
        if List.length c.failed_checks > failures_before then incr failed;
        m)
      tabs
  in
  let wall = float_of_int !mirror_ns in
  let frac l = float_of_int l.busy /. wall in
  let attributed = List.fold_left (fun acc l -> acc +. frac l) 0.0 layers in
  let unattributed = 1.0 -. attributed in
  check c (w.smoke || Float.abs unattributed <= 0.10)
    "layer times sum to %.1f%% of the traced wall time (must be within 10%%)" (100.0 *. attributed);
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let mstates = sum (fun m -> m.m_states) mirrored in
  Measure.write_chrome trace_file;
  finish c ~attempted:(List.length tabs) ~failed:!failed
    [ ("trace.ns_per_op", wall /. float_of_int mstates, "ns");
      ("trace.overhead_frac", (wall /. float_of_int !engine_ns) -. 1.0, "ratio");
      ("trace.unattributed_frac", unattributed, "ratio");
      ("gc.alloc_bytes_per_op", !alloc /. float_of_int !states, "B");
      ("Step.busy_frac", frac step_l, "ratio");
      ("Step.moves_per_op", ratio (sum (fun m -> m.m_moves) mirrored) mstates, "ratio");
      ( "Step.resolutions_per_move",
        (* every resolution of a move is one transition *)
        ratio (sum (fun m -> m.m_transitions) mirrored) (sum (fun m -> m.m_moves) mirrored),
        "ratio" );
      ("Fingerprint.busy_frac", frac fp_l, "ratio");
      ("Fingerprint.keys_per_op", ratio (sum (fun m -> m.m_claims) mirrored) mstates, "ratio");
      ( "Fingerprint.memo_hit_ratio",
        ratio (sum (fun m -> m.m_memo_hits) mirrored) (sum (fun m -> m.m_memo_requests) mirrored),
        "ratio" );
      ("State_store.busy_frac", frac store_l, "ratio");
      ( "State_store.dup_ratio",
        ratio (sum (fun m -> m.m_dups) mirrored) (sum (fun m -> m.m_claims) mirrored),
        "ratio" );
      ("State_store.reexpands", float_of_int (sum (fun m -> m.m_reexpands) mirrored), "count");
      ("State_store.bytes_per_state", ratio (sum (fun m -> m.m_store_bytes) mirrored) mstates, "B");
      ("Engine.frontier_busy_frac", frac frontier_l, "ratio");
      ("Replay.busy_frac", frac replay_l, "ratio") ]
