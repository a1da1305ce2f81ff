(* Tests for the unified exploration core: pre-refactor regression triples
   for every engine, fingerprint/Canon partition equivalence, paranoid-mode
   collision checking, and the physical-sharing contract behind the
   incremental per-machine digest cache.

   The (verdict, states, transitions) numbers below were captured from the
   engines *before* they became Engine instantiations; the refactor (and
   any future change to Engine) must reproduce them exactly. *)

open P_checker

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let tab_of p = P_static.Check.run_exn p

let find_p_file name =
  List.find Sys.file_exists
    (List.map
       (fun prefix -> Filename.concat prefix (Filename.concat "examples/p" name))
       [ "."; ".."; "../.."; "../../.."; "../../../.." ])

let elevator () = tab_of (P_examples_lib.Elevator.program ())
let elevator_buggy () = tab_of (P_examples_lib.Elevator.buggy_program ())
let german () = tab_of (P_examples_lib.German.program ())
let german_buggy () = tab_of (P_examples_lib.German.buggy_program ())
let ring () = tab_of (P_parser.Parser.program_of_file (find_p_file "ring.p"))

(* ---------------- pre-refactor regression triples ---------------- *)

let check_triple name (r : Search.result) (error_depth, states, transitions) =
  (match (r.verdict, error_depth) with
  | Search.No_error, None -> ()
  | Search.Error_found ce, Some d ->
    check int_t (name ^ " error depth") d ce.Search.depth
  | Search.No_error, Some _ -> Alcotest.failf "%s: expected an error" name
  | Search.Error_found ce, None ->
    Alcotest.failf "%s: unexpected error at depth %d" name ce.Search.depth);
  check int_t (name ^ " states") states r.stats.states;
  check int_t (name ^ " transitions") transitions r.stats.transitions

let test_delay_bounded_triples () =
  List.iter
    (fun (name, tab, d, expected) ->
      check_triple
        (Fmt.str "%s d=%d" name d)
        (Delay_bounded.explore ~delay_bound:d ~max_states:500_000 tab)
        expected)
    [ ("elevator", elevator (), 0, (None, 122, 144));
      ("elevator", elevator (), 1, (None, 729, 1186));
      ("elevator", elevator (), 2, (None, 2224, 4659));
      ("elevator_buggy", elevator_buggy (), 0, (Some 15, 21, 22));
      ("elevator_buggy", elevator_buggy (), 1, (Some 11, 62, 96));
      ("elevator_buggy", elevator_buggy (), 2, (Some 10, 132, 247));
      ("german", german (), 0, (None, 4887, 7502));
      ("german_buggy", german_buggy (), 1, (Some 20, 2070, 2354));
      ("german_buggy", german_buggy (), 2, (Some 19, 13080, 19491));
      ("ring", ring (), 0, (None, 35, 35));
      ("ring", ring (), 1, (None, 141, 171));
      ("ring", ring (), 2, (None, 198, 412)) ]

let test_round_robin_triples () =
  List.iter
    (fun (name, tab, expected) ->
      check_triple (name ^ " rr d=1")
        (Delay_bounded.explore ~discipline:Delay_bounded.Round_robin ~delay_bound:1
           ~max_states:500_000 tab)
        expected)
    [ ("elevator", elevator (), (None, 35, 57));
      ("elevator_buggy", elevator_buggy (), (Some 8, 30, 41));
      ("german_buggy", german_buggy (), (Some 16, 1774, 5366)) ]

let test_depth_bounded_triples () =
  List.iter
    (fun (name, tab, b, expected) ->
      let r = Depth_bounded.explore ~depth_bound:b ~max_states:500_000 tab in
      check_triple (Fmt.str "%s depth b=%d" name b) r expected;
      check bool_t (name ^ " truncated") true r.stats.truncated)
    [ ("elevator", elevator (), 3, (None, 11, 14));
      ("elevator", elevator (), 6, (None, 51, 126));
      ("german", german (), 6, (None, 33, 57));
      ("ring", ring (), 6, (None, 28, 40)) ]

(* The work-stealing engine's pinned triples. Verdicts and state counts
   match the sequential table above exactly; on clean programs its
   transition count is ≤ the sequential one (each state is expanded exactly
   once, at its minimal delay budget, where sequential BFS re-expands states
   it first reached with more delays spent — elevator: 4523 vs 4659). Buggy
   programs re-derive the counterexample sequentially, so those triples are
   byte-identical to the sequential engine's. *)
let test_parallel_matches_sequential_triples () =
  List.iter
    (fun (name, tab, expected) ->
      List.iter
        (fun domains ->
          check_triple
            (Fmt.str "%s parallel doms=%d" name domains)
            (Parallel.explore ~domains ~delay_bound:2 ~max_states:500_000 tab)
            expected)
        [ 1; 2 ])
    [ ("elevator", elevator (), (None, 2224, 4523));
      ("elevator_buggy", elevator_buggy (), (Some 10, 132, 247));
      ("german_buggy", german_buggy (), (Some 19, 13080, 19491));
      ("ring", ring (), (None, 198, 321)) ]

let test_random_walk_triples () =
  let r = Random_walk.run ~walks:20 ~max_blocks:100 ~seed:42 (elevator ()) in
  check int_t "elevator walks clean" 0 r.errors_found;
  check int_t "elevator total blocks" 2000 r.total_blocks;
  let rb = Random_walk.run ~walks:20 ~max_blocks:100 ~seed:42 (elevator_buggy ()) in
  check int_t "elevator_buggy failing walks" 19 rb.errors_found;
  check int_t "elevator_buggy total blocks" 620 rb.total_blocks;
  (match rb.first_error with
  | Some f ->
    check int_t "first failing walk blocks" 12 f.blocks;
    check int_t "first failing trace items" 29 (List.length f.trace)
  | None -> Alcotest.fail "expected a failing walk");
  let rr = Random_walk.run ~walks:20 ~max_blocks:100 ~seed:42 (ring ()) in
  check int_t "ring walks clean" 0 rr.errors_found;
  check int_t "ring total blocks" 2000 rr.total_blocks

let test_liveness_triples () =
  let r = Liveness.check ~max_states:20_000 (elevator ()) in
  check int_t "elevator violations" 0 (List.length r.violations);
  check int_t "elevator explored" 20_002 r.explored_states;
  check bool_t "elevator complete" false r.complete;
  let rr = Liveness.check ~max_states:20_000 (ring ()) in
  check int_t "ring violations" 0 (List.length rr.violations);
  check int_t "ring explored" 101 rr.explored_states;
  check bool_t "ring complete" true rr.complete

(* ---------------- the observed edge stream is pinned ---------------- *)

(* Every observer event of a run, folded into one hash: state discoveries
   in index order, then per edge the source, the machine that ran, the
   ghost-choice resolution, and the destination disposition. The golden
   values below pin the exact stream — order, dedup decisions, Dst_new vs
   Dst_seen, everything — so a refactor of [Engine.integrate] (the
   single merge-and-observe point) cannot reorder, drop, or duplicate an
   observation without this test noticing. *)
let edge_stream_hash tab ~delay_bound ~max_states =
  let h = ref 0x9e3779b9 in
  let mix i = h := (!h lxor i) * 0x100000001b3 land max_int in
  let observer =
    { Engine.on_state =
        (fun sidx _ ->
          mix 1;
          mix sidx);
      Engine.on_edge =
        (fun ~src ~src_config:_ ~by ~resolved ~dst ->
          mix 2;
          mix src;
          mix (P_semantics.Mid.to_int by);
          List.iter (fun b -> mix (if b then 3 else 4)) resolved.Search.choices;
          match dst with
          | Engine.Dst_new i ->
            mix 5;
            mix i
          | Engine.Dst_seen i ->
            mix 6;
            mix i
          | Engine.Dst_failed _ -> mix 7) }
  in
  let spec =
    Engine.spec ~bound:delay_bound ~max_states ~stop_on_error:false
      (Engine.stack_sched Engine.Causal)
  in
  let r = Engine.run ~observer ~engine:"edge_stream" spec tab in
  (!h, r.stats.states, r.stats.transitions)

let test_edge_stream_pinned () =
  List.iter
    (fun (name, tab, expected_hash, expected_states, expected_transitions) ->
      let h, states, transitions =
        edge_stream_hash tab ~delay_bound:1 ~max_states:50_000
      in
      check int_t (name ^ " edge-stream hash") expected_hash h;
      check int_t (name ^ " states") expected_states states;
      check int_t (name ^ " transitions") expected_transitions transitions)
    [ ("elevator", elevator (), 2994106453711014078, 729, 1186);
      ("german", german (), 248796328542932357, 50_000, 73_439);
      ("elevator_buggy", elevator_buggy (), 1848275993151437324, 670, 1092) ]

(* ---------------- fingerprint modes agree ---------------- *)

let test_fingerprint_modes_same_triples () =
  List.iter
    (fun (name, tab, d) ->
      let run mode =
        Delay_bounded.explore ~delay_bound:d ~max_states:500_000 ~fingerprint:mode
          tab
      in
      (* paranoid keys on the reference Canon.digest *)
      let para = run Fingerprint.Paranoid in
      let incr = run Fingerprint.Incremental in
      check int_t (Fmt.str "%s incremental states" name) para.Search.stats.states
        incr.Search.stats.states;
      check int_t
        (Fmt.str "%s incremental transitions" name)
        para.Search.stats.transitions incr.Search.stats.transitions;
      check bool_t
        (Fmt.str "%s incremental verdict agrees" name)
        (para.Search.verdict = Search.No_error)
        (incr.Search.verdict = Search.No_error))
    [ ("elevator", elevator (), 2);
      ("elevator_buggy", elevator_buggy (), 2);
      ("german", german (), 0);
      ("ring", ring (), 2) ]

(* Paranoid mode runs both encodings on every query and counts any break of
   the incremental<->full bijection; across the suite it must see none. *)
let test_paranoid_no_collisions () =
  List.iter
    (fun (name, tab, d) ->
      let metrics = P_obs.Metrics.create () in
      let instr = Search.instr ~metrics () in
      ignore
        (Delay_bounded.explore ~delay_bound:d ~max_states:500_000
           ~fingerprint:Fingerprint.Paranoid ~instr tab);
      check int_t (name ^ " collisions") 0
        (P_obs.Metrics.counter_total metrics "checker.fp_collisions");
      check bool_t (name ^ " cache exercised") true
        (P_obs.Metrics.counter_total metrics "checker.fp_cache_hits" > 0))
    [ ("elevator", elevator (), 2);
      ("elevator_buggy", elevator_buggy (), 2);
      ("german", german (), 0);
      ("german_buggy", german_buggy (), 2);
      ("ring", ring (), 2) ]

(* ---------------- incremental fingerprint ≡ Canon partition ----------- *)

(* A local xorshift so the corpus walks are reproducible without reaching
   into Random_walk's private PRNG. *)
type rng = { mutable s : int }

let make_rng seed = { s = (seed * 2654435761) lor 1 }

let rand_int rng bound =
  rng.s <- rng.s lxor (rng.s lsl 13);
  rng.s <- rng.s lxor (rng.s lsr 7);
  rng.s <- rng.s lxor (rng.s lsl 17);
  (rng.s land max_int) mod bound

(* Configurations visited by seeded random walks: walks share prefixes and
   revisit states, so the corpus contains genuinely equal configurations
   reached along different paths — exactly what a partition check needs. *)
let walk_corpus tab ~walks ~max_blocks ~seed : P_semantics.Config.t list =
  let configs = ref [] in
  let observer =
    { Engine.on_state = (fun _ c -> configs := c :: !configs);
      Engine.on_edge = (fun ~src:_ ~src_config:_ ~by:_ ~resolved:_ ~dst:_ -> ()) }
  in
  for w = 0 to walks - 1 do
    let rng = make_rng (seed + (w * 7919)) in
    let spec =
      Engine.spec ~bound:max_blocks ~truncate_on_exhaust:true
        ~frontier:Engine.Dfs
        ~resolver:(Engine.Sampled (fun () -> rand_int rng 2 = 1))
        ~track_seen:false ~max_states:max_int ~stop_on_error:false
        (Engine.random_pick (rand_int rng))
    in
    ignore (Engine.run ~observer ~engine:"corpus" spec tab)
  done;
  !configs

(* Two keys partition the corpus identically iff full->incremental and
   incremental->full are both single-valued over it. *)
let check_partition name tab configs =
  let canon = Canon.create tab in
  let fp = Fingerprint.create ~mode:Fingerprint.Incremental tab in
  let full_to_incr = Hashtbl.create 256 in
  let incr_to_full = Hashtbl.create 256 in
  List.iter
    (fun config ->
      let full = Canon.digest canon config [] in
      let inc = Fingerprint.digest fp config [] in
      (match Hashtbl.find_opt full_to_incr full with
      | Some inc' when inc' <> inc ->
        Alcotest.failf "%s: one Canon class maps to two incremental keys" name
      | Some _ -> ()
      | None -> Hashtbl.add full_to_incr full inc);
      match Hashtbl.find_opt incr_to_full inc with
      | Some full' when full' <> full ->
        Alcotest.failf "%s: two Canon classes share one incremental key" name
      | Some _ -> ()
      | None -> Hashtbl.add incr_to_full inc full)
    configs;
  check bool_t (name ^ " corpus nonempty") true (configs <> []);
  (* the corpus must actually contain duplicate states, or the partition
     check is vacuous *)
  check bool_t
    (name ^ " corpus has repeats")
    true
    (List.length configs > Hashtbl.length full_to_incr)

let test_incremental_matches_canon_partition () =
  List.iter
    (fun (name, tab) ->
      let configs = walk_corpus tab ~walks:15 ~max_blocks:60 ~seed:7 in
      check_partition name tab configs)
    ([ ("elevator", elevator ());
       ("elevator_buggy", elevator_buggy ());
       ("german", german ()) ]
    @ List.map
        (fun f -> (f, tab_of (P_parser.Parser.program_of_file (find_p_file f))))
        [ "elevator.p"; "ring.p"; "failover.p" ])

(* ---------------- the physical-sharing contract ---------------- *)

(* One atomic block must return a configuration sharing every untouched
   machine with its parent — the invariant that makes the physically-keyed
   per-machine cache sound and successor digests O(machines-changed). *)
let test_changed_machines_small () =
  let tab = german () in
  let module Step = P_semantics.Step in
  let module Config = P_semantics.Config in
  let config0, _, _ = Step.initial_config tab in
  let seen_changes = ref 0 in
  let rec walk config blocks =
    if blocks >= 60 then ()
    else
      match Step.enabled tab config with
      | [] -> ()
      | mid :: _ -> (
        match Search.resolutions tab config mid with
        | { Search.outcome; _ } :: _ -> (
          match Step.outcome_config outcome with
          | Some config' ->
            let changed = Config.changed_machines ~before:config ~after:config' in
            (* one block touches the running machine, plus at most a created
               machine or a send target *)
            check bool_t
              (Fmt.str "block %d changes at most 3 machines" blocks)
              true
              (List.length changed <= 3);
            let n_live = Config.live_count config' in
            check bool_t
              (Fmt.str "block %d shares the rest" blocks)
              true
              (List.length changed < n_live || n_live <= 3);
            seen_changes := !seen_changes + List.length changed;
            walk config' (blocks + 1)
          | None -> ())
        | [] -> ())
  in
  walk config0 0;
  check bool_t "walk made progress" true (!seen_changes > 0)

(* ---------------- state-space reduction ---------------- *)

(* Reduction differential: [por] must report the same verdict kind as
   [none] while never claiming more states, strictly fewer where the
   commutativity structure exists. The reduced counts are pinned — the
   pruning decision is a pure function of the expanded state, so they are
   part of the determinism contract. *)
let test_reduction_differential () =
  List.iter
    (fun (name, tab, d, pinned) ->
      let explore reduce =
        Delay_bounded.explore ~delay_bound:d ~max_states:500_000 ~reduce tab
      in
      let none = explore Reduce.none and por = explore Reduce.por in
      check bool_t
        (Fmt.str "%s d=%d same verdict kind" name d)
        true
        ((none.verdict = Search.No_error) = (por.verdict = Search.No_error));
      check bool_t
        (Fmt.str "%s d=%d never more states" name d)
        true
        (por.stats.states <= none.stats.states);
      check int_t (Fmt.str "%s d=%d unreduced off" name d) 0 none.stats.pruned;
      match pinned with
      | None -> ()
      | Some (states, pruned) ->
        check int_t (Fmt.str "%s d=%d reduced states" name d) states
          por.stats.states;
        check int_t (Fmt.str "%s d=%d moves slept" name d) pruned
          por.stats.pruned)
    [ ("pingpong", tab_of (P_examples_lib.Pingpong.program ()), 2, None);
      ("switch_led", tab_of (P_examples_lib.Switch_led.program ()), 2, None);
      ("token_ring", tab_of (P_examples_lib.Token_ring.program ()), 2, Some (170, 106));
      ("bounded_buffer", tab_of (P_examples_lib.Bounded_buffer.program ()), 2, None);
      ("elevator", elevator (), 2, Some (1112, 71));
      ("elevator_buggy", elevator_buggy (), 2, None);
      ( "german",
        tab_of (P_examples_lib.German.program ~n:3 ~requests:2 ()),
        2,
        Some (1930, 859) );
      ( "german_buggy",
        tab_of (P_examples_lib.German.buggy_program ~n:3 ~requests:2 ()),
        2,
        None ) ]

(* The USB stack's value space is unbounded (sequence counters ride the
   payloads), so its reduction workload is depth-capped: within any BFS
   depth the reduced reachable set is a subset of the unreduced one. *)
let test_reduction_usb_depth_capped () =
  let tab = tab_of (P_usb.Stack.program ()) in
  let explore reduce =
    Delay_bounded.explore ~delay_bound:2 ~max_depth:20 ~max_states:500_000
      ~reduce tab
  in
  let none = explore Reduce.none in
  let por = explore Reduce.por in
  check int_t "usb unreduced states" 33410 none.stats.states;
  check int_t "usb reduced states" 13145 por.stats.states

(* Parallel exploration under reduction keeps the sequential contract:
   same verdict, same states, same pruned count, and a counterexample
   whose schedule still replays to the same failure in the compiled
   runtime. *)
let test_reduction_parallel_and_replay () =
  let tab = tab_of (P_examples_lib.German.buggy_program ~n:3 ~requests:2 ()) in
  let reduce = Reduce.por in
  let seq =
    Delay_bounded.explore ~delay_bound:2 ~max_states:500_000 ~reduce tab
  in
  let par =
    Parallel.explore ~domains:4 ~delay_bound:2 ~max_states:500_000 ~reduce tab
  in
  check int_t "par states = seq states" seq.stats.states par.stats.states;
  check int_t "par pruned = seq pruned" seq.stats.pruned par.stats.pruned;
  match (seq.verdict, par.verdict) with
  | Search.Error_found sce, Search.Error_found pce ->
    check int_t "ce depths agree" sce.Search.depth pce.Search.depth;
    check bool_t "ce schedules agree" true
      (sce.Search.schedule = pce.Search.schedule);
    (match Differential.run tab sce.Search.schedule with
    | Ok (Differential.Agree { verdict = Differential.Agree_error _; _ }) -> ()
    | Ok o ->
      Alcotest.failf "reduced counterexample replay: %a" Differential.pp_outcome o
    | Error e -> Alcotest.failf "differential setup failed: %s" e)
  | _ -> Alcotest.fail "expected an error from both engines"

let suite =
  [ Alcotest.test_case "delay-bounded pre-refactor triples" `Quick
      test_delay_bounded_triples;
    Alcotest.test_case "round-robin pre-refactor triples" `Quick
      test_round_robin_triples;
    Alcotest.test_case "depth-bounded pre-refactor triples" `Quick
      test_depth_bounded_triples;
    Alcotest.test_case "parallel matches sequential triples" `Slow
      test_parallel_matches_sequential_triples;
    Alcotest.test_case "random-walk pre-refactor results" `Quick
      test_random_walk_triples;
    Alcotest.test_case "liveness pre-refactor results" `Slow test_liveness_triples;
    Alcotest.test_case "observed edge stream is pinned" `Quick
      test_edge_stream_pinned;
    Alcotest.test_case "fingerprint modes report identical triples" `Quick
      test_fingerprint_modes_same_triples;
    Alcotest.test_case "paranoid mode sees zero collisions" `Quick
      test_paranoid_no_collisions;
    Alcotest.test_case "incremental fingerprint ≡ Canon partition" `Quick
      test_incremental_matches_canon_partition;
    Alcotest.test_case "atomic blocks share untouched machines" `Quick
      test_changed_machines_small;
    Alcotest.test_case "reduction differential on the example suite" `Quick
      test_reduction_differential;
    Alcotest.test_case "reduction on the depth-capped USB stack" `Quick
      test_reduction_usb_depth_capped;
    Alcotest.test_case "reduced parallel search and replay" `Quick
      test_reduction_parallel_and_replay ]
