(* Unit tests of the pluggable seen-set ({!P_checker.State_store}): the
   claim contract of each representation, CAS single-winner arbitration
   under real domains, capacity/Dropped behaviour, the engine-level guard
   rails, and the summary's honesty accounting (occupancy, omission
   bound). *)

open P_checker

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let mk ?capacity ?need_sidx ~kind ~workers ~max_states () =
  State_store.create ?capacity ?need_sidx ~kind ~workers ~max_states ()

(* a deterministic stream of well-mixed distinct fingerprints *)
let fp_of i =
  let h = i * 0x9e3779b97f4a7c1 land max_int in
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 land max_int in
  h lxor (h lsr 27)

let digest_of i = Digest.string (string_of_int i)

let claim_kind = function
  | State_store.New -> "new"
  | State_store.Dup _ -> "dup"
  | State_store.Reexpand _ -> "reexpand"
  | State_store.Dropped -> "dropped"

let check_claim name expected actual =
  check Alcotest.string name expected (claim_kind actual)

(* ---------------- kind parsing ---------------- *)

let test_kind_of_string () =
  List.iter
    (fun k ->
      match State_store.kind_of_string (State_store.kind_to_string k) with
      | Ok k' -> check bool_t "roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    [ State_store.Exact; State_store.Compact ];
  let rejects what = function
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  rejects "store mothballed" (State_store.kind_of_string "mothballed");
  rejects "store bitstate" (State_store.kind_of_string "bitstate");
  rejects "reduce symmetry" (Reduce.of_string "symmetry");
  rejects "reduce full" (Reduce.of_string "full");
  rejects "fingerprint full" (Fingerprint.mode_of_string "full")

(* ---------------- claim semantics, per representation ---------------- *)

(* Exact and Compact share the min-spent contract: first claim is [New],
   a revisit at >= the recorded budget is [Dup], a revisit at a strictly
   smaller budget is [Reexpand] and lowers the record. *)
let min_spent_contract name t =
  let claim ~spent ~new_sidx =
    State_store.claim t ~worker:0 ~digest:(digest_of 1) ~fp:(fp_of 1) ~spent
      ~new_sidx
  in
  check_claim (name ^ " first visit") "new" (claim ~spent:5 ~new_sidx:7);
  check_claim (name ^ " revisit at larger spent") "dup" (claim ~spent:9 ~new_sidx:8);
  check_claim (name ^ " revisit at equal spent") "dup" (claim ~spent:5 ~new_sidx:8);
  check_claim (name ^ " smaller spent re-expands") "reexpand"
    (claim ~spent:2 ~new_sidx:8);
  (* the record was lowered: the old spent no longer re-expands *)
  check_claim (name ^ " record was lowered") "dup" (claim ~spent:4 ~new_sidx:8);
  let s = State_store.summary t in
  check int_t (name ^ " one entry") 1 s.State_store.s_entries;
  check bool_t (name ^ " not dropped") false s.State_store.s_dropped

let test_exact_claims () =
  let t = mk ~kind:State_store.Exact ~workers:1 ~max_states:1_000 () in
  min_spent_contract "exact" t;
  (* exact keeps dense indices: the Dup reports the sidx of the first claim *)
  (match
     State_store.claim t ~worker:0 ~digest:(digest_of 1) ~fp:(fp_of 1) ~spent:9
       ~new_sidx:99
   with
  | State_store.Dup sidx -> check int_t "exact dup sidx" 7 sidx
  | c -> Alcotest.failf "expected dup, got %s" (claim_kind c));
  let s = State_store.summary t in
  check bool_t "exact bytes positive" true (s.State_store.s_bytes > 0);
  check bool_t "exact omission bound is zero" true
    (s.State_store.s_omission_bound = 0.0)

let test_compact_claims () =
  let t = mk ~kind:State_store.Compact ~workers:1 ~max_states:1_000 () in
  min_spent_contract "compact" t;
  let s = State_store.summary t in
  (* off-heap arena: the footprint is the slot array, not per-entry heap *)
  check int_t "compact bytes = capacity words" (s.State_store.s_capacity * 8)
    s.State_store.s_bytes;
  check bool_t "compact omission bound tiny but honest" true
    (s.State_store.s_omission_bound > 0.0
    && s.State_store.s_omission_bound < 1e-9)

let test_compact_sidx_tracking () =
  let t =
    mk ~need_sidx:true ~kind:State_store.Compact ~workers:1 ~max_states:1_000 ()
  in
  (match
     State_store.claim t ~worker:0 ~digest:"" ~fp:(fp_of 3) ~spent:1 ~new_sidx:42
   with
  | State_store.New -> ()
  | c -> Alcotest.failf "expected new, got %s" (claim_kind c));
  (match
     State_store.claim t ~worker:0 ~digest:"" ~fp:(fp_of 3) ~spent:4 ~new_sidx:50
   with
  | State_store.Dup sidx -> check int_t "compact dup sidx" 42 sidx
  | c -> Alcotest.failf "expected dup, got %s" (claim_kind c));
  (* the parallel driver never tracks indices: multi-worker + need_sidx is
     a construction error, not a silent downgrade *)
  match
    mk ~need_sidx:true ~kind:State_store.Compact ~workers:2 ~max_states:1_000 ()
  with
  | _ -> Alcotest.fail "multi-worker compact sidx tracking must be refused"
  | exception Invalid_argument _ -> ()

(* ---------------- capacity and Dropped ---------------- *)

let test_compact_capacity_drops () =
  (* a deliberately tiny arena: claims past the probe limit answer
     [Dropped] — the run truncates, it never silently merges *)
  let t =
    mk ~capacity:1024 ~kind:State_store.Compact ~workers:1 ~max_states:1_000_000 ()
  in
  let dropped = ref 0 and fresh = ref 0 in
  for i = 1 to 2_000 do
    match
      State_store.claim t ~worker:0 ~digest:"" ~fp:(fp_of i) ~spent:0 ~new_sidx:i
    with
    | State_store.New -> incr fresh
    | State_store.Dropped -> incr dropped
    | State_store.Dup _ | State_store.Reexpand _ -> ()
  done;
  check bool_t "some claims dropped" true (!dropped > 0);
  check bool_t "table filled first" true (!fresh > 900);
  let s = State_store.summary t in
  check bool_t "summary reports dropped" true s.State_store.s_dropped;
  check bool_t "occupancy near full" true (s.State_store.s_occupancy > 0.9)

let test_default_capacity_sizing () =
  List.iter
    (fun (kind, max_states, at_least) ->
      let c = State_store.default_capacity ~kind ~max_states in
      check bool_t "capacity is a power of two" true (c land (c - 1) = 0);
      check bool_t "capacity covers the budget" true (c >= at_least))
    [ (State_store.Compact, 1_000, 1_500);
      (State_store.Compact, 1_000_000, 1_500_000) ]

(* ---------------- CAS arbitration under real domains ---------------- *)

(* Four domains hammer the same fingerprint universe concurrently; the
   CAS claim protocol must hand out exactly one [New] per distinct
   fingerprint, no matter how the races interleave. *)
let test_compact_parallel_single_winner () =
  let workers = 4 and universe = 4_096 in
  let t = mk ~kind:State_store.Compact ~workers ~max_states:universe () in
  let news = Array.make workers 0 in
  let domains =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            (* every worker claims the whole universe, in a different order *)
            for i = 0 to universe - 1 do
              let j = (i + (w * 997)) mod universe in
              match
                State_store.claim t ~worker:w ~digest:"" ~fp:(fp_of j) ~spent:0
                  ~new_sidx:j
              with
              | State_store.New -> news.(w) <- news.(w) + 1
              | State_store.Dup _ | State_store.Reexpand _ -> ()
              | State_store.Dropped -> Alcotest.fail "unexpected drop"
            done))
  in
  List.iter Domain.join domains;
  check int_t "one winner per fingerprint" universe
    (Array.fold_left ( + ) 0 news);
  let s = State_store.summary t in
  check int_t "entries = distinct fingerprints" universe s.State_store.s_entries;
  check bool_t "not dropped" false s.State_store.s_dropped

let test_exact_parallel_single_winner () =
  let workers = 4 and universe = 2_048 in
  let t = mk ~kind:State_store.Exact ~workers ~max_states:universe () in
  let news = Array.make workers 0 in
  let domains =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to universe - 1 do
              let j = (i + (w * 997)) mod universe in
              match
                State_store.claim t ~worker:w ~digest:(digest_of j) ~fp:0
                  ~spent:0 ~new_sidx:j
              with
              | State_store.New -> news.(w) <- news.(w) + 1
              | _ -> ()
            done))
  in
  List.iter Domain.join domains;
  check int_t "one winner per digest" universe (Array.fold_left ( + ) 0 news);
  check int_t "entries = distinct digests" universe
    (State_store.summary t).State_store.s_entries

(* ---------------- engine-level guard rails ---------------- *)

let elevator () = P_static.Check.run_exn (P_examples_lib.Elevator.program ())

let test_engine_refuses_unsafe_specs () =
  (* the compact slot word keeps 15 bits of budget: a bound that could
     saturate it is refused up front, not silently clamped *)
  try
    ignore
      (Delay_bounded.explore ~store:State_store.Compact
         ~delay_bound:(State_store.max_exact_spent + 1) ~max_states:100
         (elevator ()));
    Alcotest.fail "compact must refuse a bound beyond its spent field"
  with Invalid_argument _ -> ()

(* ---------------- engine triples across stores ---------------- *)

(* The store is a membership oracle, not a search policy: swapping exact
   for compact must not move a single number (the 47-bit tag space makes
   a collision at these sizes beyond unlikely). *)
let test_store_triples_match () =
  let tab = elevator () in
  let run store = Delay_bounded.explore ~store ~delay_bound:2 ~max_states:50_000 tab in
  let exact = run State_store.Exact in
  let compact = run State_store.Compact in
  check int_t "compact states" exact.Search.stats.states
    compact.Search.stats.states;
  check int_t "compact transitions" exact.Search.stats.transitions
    compact.Search.stats.transitions;
  check bool_t "compact verdict" true
    (exact.Search.verdict = Search.No_error
    && compact.Search.verdict = Search.No_error);
  (* the buggy elevator: both stores find the bug *)
  let tabb = P_static.Check.run_exn (P_examples_lib.Elevator.buggy_program ()) in
  List.iter
    (fun store ->
      match
        (Delay_bounded.explore ~store ~delay_bound:2 ~max_states:50_000 tabb)
          .Search.verdict
      with
      | Search.Error_found ce -> check int_t "bug depth" 10 ce.Search.depth
      | Search.No_error -> Alcotest.fail "store lost a real bug")
    [ State_store.Exact; State_store.Compact ]

let suite =
  [ Alcotest.test_case "kind parsing" `Quick test_kind_of_string;
    Alcotest.test_case "exact claim semantics" `Quick test_exact_claims;
    Alcotest.test_case "compact claim semantics" `Quick test_compact_claims;
    Alcotest.test_case "compact sidx tracking" `Quick test_compact_sidx_tracking;
    Alcotest.test_case "compact capacity drops honestly" `Quick
      test_compact_capacity_drops;
    Alcotest.test_case "default capacity sizing" `Quick
      test_default_capacity_sizing;
    Alcotest.test_case "compact CAS: one winner per state" `Quick
      test_compact_parallel_single_winner;
    Alcotest.test_case "exact shards: one winner per state" `Quick
      test_exact_parallel_single_winner;
    Alcotest.test_case "engines refuse unsafe store specs" `Quick
      test_engine_refuses_unsafe_specs;
    Alcotest.test_case "triples identical across stores" `Quick
      test_store_triples_match ]
