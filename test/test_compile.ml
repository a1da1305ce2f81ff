(* Tests for the compilation pipeline: lowering to table IR and C emission. *)

module Tables = P_compile.Tables
module Compile = P_compile.Compile

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let contains = Astring_contains.contains

let compiled_pingpong () = Compile.compile ~name:"pingpong" (P_examples_lib.Pingpong.program ())

let test_lower_event_table () =
  let { Compile.driver; _ } = compiled_pingpong () in
  check int_t "events" 4 (Array.length driver.dr_events);
  check bool_t "Ping has int payload" true
    (Array.exists (fun (n, ty) -> n = "Ping" && ty = P_syntax.Ptype.Int) driver.dr_events);
  check bool_t "event id lookup" true (Tables.event_id_of_name driver "Pong" <> None);
  check bool_t "unknown event" true (Tables.event_id_of_name driver "Nope" = None)

let test_lower_machine_tables () =
  let { Compile.driver; _ } = compiled_pingpong () in
  check int_t "machines" 2 (Array.length driver.dr_machines);
  let pinger = driver.dr_machines.(Option.get (Tables.machine_ty_of_name driver "Pinger")) in
  check string_t "name" "Pinger" pinger.mt_name;
  check int_t "vars" 3 (Array.length pinger.mt_vars);
  check bool_t "states nonempty" true (Array.length pinger.mt_states >= 4);
  check string_t "initial first" "Init" pinger.mt_states.(0).st_name;
  (* transition tables are event-indexed *)
  Array.iter
    (fun (st : Tables.state_table) ->
      check int_t "deferred width" (Array.length driver.dr_events) (Array.length st.st_deferred);
      check int_t "steps width" (Array.length driver.dr_events) (Array.length st.st_steps))
    pinger.mt_states

let test_lower_ghost_erased () =
  let { Compile.erased; driver } = Compile.compile (P_examples_lib.Elevator.program ()) in
  check bool_t "no ghost machines" true
    (List.for_all (fun (m : P_syntax.Ast.machine) -> not m.machine_ghost) erased.machines);
  check int_t "only the elevator remains" 1 (Array.length driver.dr_machines);
  check bool_t "main is the real machine" true
    (driver.dr_main = Tables.machine_ty_of_name driver "Elevator")

let test_lower_rejects_surviving_ghost () =
  (* calling the lowerer directly on an unerased program must fail *)
  match P_compile.Lower.lower (P_examples_lib.Elevator.program ()) with
  | exception P_compile.Lower.Not_compilable _ -> ()
  | _ -> Alcotest.fail "lowering a ghost machine should fail"

let test_code_size_metric () =
  let open Tables in
  let c = CSeq (CSkip, CIf (CBool true, CSkip, CSeq (CSkip, CDelete))) in
  check int_t "code size" 5 (code_size c);
  let { Compile.driver; _ } = compiled_pingpong () in
  check bool_t "driver size positive" true (driver_size driver > 10)

let test_new_initializers_target_namespace () =
  (* Pinger creates Ponger with initializer client = this; the lowered var id
     must index Ponger's variable table (where client is var 0), not
     Pinger's *)
  let { Compile.driver; _ } = compiled_pingpong () in
  let pinger = driver.dr_machines.(Option.get (Tables.machine_ty_of_name driver "Pinger")) in
  let found = ref false in
  let rec scan (c : Tables.code) =
    match c with
    | Tables.CNew (_, ty, inits) ->
      let target = driver.dr_machines.(ty) in
      check string_t "target type" "Ponger" target.mt_name;
      List.iter
        (fun (y, _) -> check string_t "initializes client" "client" (fst target.mt_vars.(y)))
        inits;
      found := true
    | Tables.CSeq (a, b) | Tables.CIf (_, a, b) ->
      scan a;
      scan b
    | Tables.CWhile (_, b) -> scan b
    | _ -> ()
  in
  Array.iter (fun (st : Tables.state_table) -> scan st.st_entry) pinger.mt_states;
  check bool_t "found the new" true !found

(* ---------------- C emission ---------------- *)

let test_c_emission_shape () =
  let c = Compile.to_c ~name:"pp" (P_examples_lib.Pingpong.program ()) in
  List.iter
    (fun frag ->
      if not (contains c frag) then Alcotest.failf "generated C lacks %S" frag)
    [ "#include \"p_runtime.h\"";
      "P_EVENT_Ping = 0";
      "P_EVENT_COUNT = 4";
      "P_MACHINE_Pinger";
      "P_STATE_Pinger_Init = 0";
      "static void P_ENTRY_Pinger_Init(PRT_SM_CONTEXT *ctx)";
      "static void P_EXIT_Pinger_Init(PRT_SM_CONTEXT *ctx)";
      "PrtRtSend(ctx,";
      "PrtRtRaise(ctx,";
      ".deferred =";
      ".entry = P_ENTRY_Pinger_Init";
      "const PRT_DRIVER_DECL P_DRIVER";
      ".main_machine = P_MACHINE_Pinger" ]

let test_c_emission_foreign_prototypes () =
  let c = Compile.to_c (P_examples_lib.Switch_led.program ()) in
  check bool_t "extern prototype with void* first arg" true
    (contains c "extern PRT_VALUE set_led(void *external_memory, PRT_VALUE);");
  check bool_t "call passes context memory" true (contains c "set_led(PrtGetContext(ctx)")

let test_c_emission_deferred_bitmap () =
  let c = Compile.to_c (P_examples_lib.Elevator.program ()) in
  (* Closed defers CloseDoor (event id 3): bit 3 = 0x8 *)
  check bool_t "deferred bitmap emitted" true (contains c "0x00000008")

let test_c_emission_deterministic () =
  let c1 = Compile.to_c (P_examples_lib.German.program ()) in
  let c2 = Compile.to_c (P_examples_lib.German.program ()) in
  check bool_t "same output" true (String.equal c1 c2)

(* [.actions] holds function pointers, so an event with no action is a
   null pointer there; [P_NO_TARGET] is the empty state index of [.steps]
   and [.calls] only. *)
let test_c_emission_null_actions () =
  let families =
    [ ("elevator", P_examples_lib.Elevator.program ());
      ("pingpong", P_examples_lib.Pingpong.program ());
      ("german", P_examples_lib.German.program ());
      ("switchled", P_examples_lib.Switch_led.program ());
      ("tokenring", P_examples_lib.Token_ring.program ());
      ("boundedbuffer", P_examples_lib.Bounded_buffer.program ());
      ("leaderring", P_examples_lib.Leader_ring.program ());
      ("failoverchain", P_examples_lib.Failover_chain.program ());
      ("usb-stack", P_usb.Stack.program ()) ]
    @ List.map
        (fun spec -> (spec.P_usb.Gen.name, P_usb.Gen.program_of_spec spec))
        P_usb.Gen.all_specs
  in
  List.iter
    (fun (name, p) ->
      (* the emitter writes each initializer on one line *)
      let actions =
        List.filter
          (fun l -> contains l ".actions = {")
          (String.split_on_char '\n' (Compile.to_c p))
      in
      check bool_t (name ^ ": has action tables") true (actions <> []);
      List.iter
        (fun l ->
          if contains l "P_NO_TARGET" then
            Alcotest.failf "%s: P_NO_TARGET in an action slot: %s" name l)
        actions)
    families

let test_compile_rejects_ill_typed () =
  let p =
    P_parser.Parser.program_of_string
      "event e;\nmachine M { var x : bool; state S { entry { x := 1; } } }\nmain M();"
  in
  match Compile.compile p with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "compile must reject statically invalid programs"

let suite =
  [ Alcotest.test_case "event table" `Quick test_lower_event_table;
    Alcotest.test_case "machine tables" `Quick test_lower_machine_tables;
    Alcotest.test_case "ghost erased" `Quick test_lower_ghost_erased;
    Alcotest.test_case "lower rejects ghost" `Quick test_lower_rejects_surviving_ghost;
    Alcotest.test_case "code size" `Quick test_code_size_metric;
    Alcotest.test_case "new initializers" `Quick test_new_initializers_target_namespace;
    Alcotest.test_case "C shape" `Quick test_c_emission_shape;
    Alcotest.test_case "C foreign prototypes" `Quick test_c_emission_foreign_prototypes;
    Alcotest.test_case "C deferred bitmap" `Quick test_c_emission_deferred_bitmap;
    Alcotest.test_case "C deterministic" `Quick test_c_emission_deterministic;
    Alcotest.test_case "C null action slots" `Quick test_c_emission_null_actions;
    Alcotest.test_case "compile rejects ill-typed" `Quick test_compile_rejects_ill_typed ]
