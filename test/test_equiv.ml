(* The d=0 equivalence of section 5: "for d = 0, the real part of schedules
   explored by the delay bounded scheduler are exactly the same as the one
   executed by the P runtime ... assuming no multithreading".

   The runtime (P_runtime, table-driven and mutable) and the verifier-side
   simulator (P_semantics.Simulate, the d=0 slice of the delaying scheduler)
   are independent implementations; these tests compare their observable
   traces item by item on ghost-free programs, where erasure is the
   identity and the comparison is exact. Both sides speak
   {!P_semantics.Trace}, so the comparison is structural, dequeue payloads
   included. *)

module Trace = P_semantics.Trace

let check = Alcotest.check
let bool_t = Alcotest.bool

(* Both runtime drivers behind one face, selected by PCAML_TEST_SCHED:
   "threads" (default) is the historical nested run-to-completion driver;
   "effects" (a historical name) is the causal-policy Sched driver, which
   must produce the same observable traces (and so transitively the same
   d=0 equivalence with the simulator). *)
let make_runtime driver =
  match Sys.getenv_opt "PCAML_TEST_SCHED" with
  | Some "effects" ->
    let s = P_runtime.Sched.create ~policy:P_runtime.Sched.Causal driver in
    (P_runtime.Sched.exec s, fun main -> P_runtime.Sched.create_machine s main)
  | _ ->
    let rt = P_runtime.Api.create driver in
    (rt, fun main -> P_runtime.Api.create_machine rt main)

let runtime_trace program main =
  let { P_compile.Compile.driver; _ } = P_compile.Compile.compile program in
  let rt, create_machine = make_runtime driver in
  let items = ref [] in
  P_runtime.Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
  let _ = create_machine main in
  Trace.observable (List.rev !items)

let simulator_trace program =
  let tab = P_static.Check.run_exn program in
  let r = P_semantics.Simulate.run tab in
  (match r.status with
  | P_semantics.Simulate.Error e ->
    Alcotest.failf "simulator hit an error: %a" P_semantics.Errors.pp e
  | _ -> ());
  Trace.observable r.trace

let assert_equal_traces name rt_items sim_items =
  if rt_items <> sim_items then
    Alcotest.failf "%s traces differ:@.--- runtime ---@.%a@.--- simulator ---@.%a" name
      Trace.pp rt_items Trace.pp sim_items

let equiv name program main =
  assert_equal_traces name (runtime_trace program main) (simulator_trace program)

let test_pingpong () =
  List.iter
    (fun rounds ->
      equiv
        (Fmt.str "pingpong-%d" rounds)
        (P_examples_lib.Pingpong.program ~rounds ())
        "Pinger")
    [ 1; 2; 5; 10 ]

let test_bounded_buffer () =
  List.iter
    (fun (items, credits) ->
      equiv
        (Fmt.str "boundedbuffer-%d-%d" items credits)
        (P_examples_lib.Bounded_buffer.program ~items ~credits ())
        "Producer")
    [ (1, 1); (4, 2); (8, 3) ]

let test_token_ring () =
  (* the ring circulates forever; bound both sides identically by truncating
     the traces to the same finite prefix *)
  let program = P_examples_lib.Token_ring.program ~n:3 () in
  let tab = P_static.Check.run_exn program in
  let sim = P_semantics.Simulate.run ~max_blocks:60 tab in
  let sim_items = Trace.observable sim.trace in
  let { P_compile.Compile.driver; _ } = P_compile.Compile.compile program in
  let rt, create_machine = make_runtime driver in
  let items = ref [] in
  let count = ref 0 in
  let exception Enough in
  P_runtime.Api.set_trace_hook rt
    (Some
       (fun it ->
         items := it :: !items;
         incr count;
         if !count > 2_000 then raise Enough));
  (try ignore (create_machine "Starter") with Enough -> ());
  let rt_items = Trace.observable (List.rev !items) in
  let n = min (List.length sim_items) (List.length rt_items) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  check bool_t "prefix agrees" true (take n rt_items = take n sim_items);
  check bool_t "long enough to be meaningful" true (n > 30)

let test_switch_led_erased () =
  (* with the ghost switch erased, the driver alone comes up in Off and
     quiesces; both engines must agree on that tiny trace too *)
  let program = P_examples_lib.Switch_led.program () in
  let { P_compile.Compile.erased; driver } = P_compile.Compile.compile program in
  let rt, create_machine = make_runtime driver in
  P_runtime.Api.register_foreign rt "set_led" (fun _ _ -> P_runtime.Rt_value.Null);
  let items = ref [] in
  P_runtime.Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
  let _ = create_machine "SwitchLed" in
  let rt_items = Trace.observable (List.rev !items) in
  let sim_items = simulator_trace erased in
  assert_equal_traces "switchled-erased" rt_items sim_items

let suite =
  [ Alcotest.test_case "pingpong d=0 ≡ runtime" `Quick test_pingpong;
    Alcotest.test_case "bounded buffer d=0 ≡ runtime" `Quick test_bounded_buffer;
    Alcotest.test_case "token ring prefix ≡" `Quick test_token_ring;
    Alcotest.test_case "erased switchled ≡" `Quick test_switch_led_erased ]
