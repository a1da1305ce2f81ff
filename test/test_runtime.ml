(* Tests for the table-driven runtime: the three-call API, run-to-completion
   scheduling, foreign functions, external memory, deferral and dedup in the
   runtime queue, deletion, errors, and a multi-threaded host smoke test. *)

module Api = P_runtime.Api
module Rt_value = P_runtime.Rt_value
module Exec = P_runtime.Exec
module Context = P_runtime.Context

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let runtime_of ?name p =
  let { P_compile.Compile.driver; _ } = P_compile.Compile.compile ?name p in
  Api.create driver

let with_trace rt =
  let items = ref [] in
  Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
  fun () -> List.rev !items

(* ---------------- basic execution ---------------- *)

let test_pingpong_runs () =
  let rt = runtime_of (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let get = with_trace rt in
  let h = Api.create_machine rt "Pinger" in
  (* run-to-completion: everything happened inside create_machine *)
  check bool_t "pinger finished" true
    (Api.current_state_name rt h = Some "Finished");
  check bool_t "ponger deleted itself" false (Api.is_alive rt 1);
  let sends =
    List.length
      (List.filter (function P_semantics.Trace.Sent _ -> true | _ -> false) (get ()))
  in
  (* 3 pings + 3 pongs + 1 done *)
  check int_t "sends" 7 sends

let test_add_event_drives_machine () =
  let rt = runtime_of (P_examples_lib.Switch_led.program ()) in
  let lit = ref false in
  Api.register_foreign rt "set_led" (fun _ args ->
      (match args with [ Rt_value.Bool b ] -> lit := b | _ -> assert false);
      Rt_value.Null);
  let h = Api.create_machine rt "SwitchLed" in
  check bool_t "off initially" false !lit;
  Api.add_event rt h "SwitchOn" Rt_value.Null;
  check bool_t "on" true !lit;
  check bool_t "in On state" true (Api.current_state_name rt h = Some "On");
  Api.add_event rt h "SwitchOff" Rt_value.Null;
  check bool_t "off again" false !lit

let test_runtime_assert_raises () =
  let rt = runtime_of (P_examples_lib.Pingpong.buggy_program ~rounds:2 ()) in
  match Api.create_machine rt "Pinger" with
  | exception Exec.Runtime_error msg ->
    check bool_t "assert message" true (Astring_contains.contains msg "assertion failed")
  | _ -> Alcotest.fail "buggy pinger must trip its assertion"

let test_runtime_unhandled_event_raises () =
  let rt = runtime_of (P_examples_lib.Switch_led.buggy_program ()) in
  let _ =
    Api.register_foreign rt "set_led" (fun _ _ -> Rt_value.Null)
  in
  let h = Api.create_machine rt "SwitchLed" in
  Api.add_event rt h "SwitchOn" Rt_value.Null;
  (* second SwitchOn is unhandled in the buggy driver *)
  match Api.add_event rt h "SwitchOn" Rt_value.Null with
  | exception Exec.Runtime_error msg ->
    check bool_t "names the event" true (Astring_contains.contains msg "SwitchOn")
  | _ -> Alcotest.fail "expected unhandled-event error"

let test_runtime_send_to_deleted_raises () =
  let rt = runtime_of (P_examples_lib.Switch_led.program ()) in
  let _ = Api.register_foreign rt "set_led" (fun _ _ -> Rt_value.Null) in
  let h = Api.create_machine rt "SwitchLed" in
  Api.add_event rt h "Delete" Rt_value.Null;
  check bool_t "deleted" false (Api.is_alive rt h);
  match Api.add_event rt h "SwitchOn" Rt_value.Null with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "send to deleted machine must fail"

let test_runtime_unknowns () =
  let rt = runtime_of (P_examples_lib.Pingpong.program ()) in
  (match Api.create_machine rt "Nope" with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unknown machine");
  let h = Api.create_machine rt "Ponger" in
  match Api.add_event rt h "Nope" Rt_value.Null with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unknown event"

(* ---------------- bounded buffer: deferral + payload counters ---------------- *)

let test_bounded_buffer_in_runtime () =
  let rt = runtime_of (P_examples_lib.Bounded_buffer.program ~items:5 ~credits:2 ()) in
  let h = Api.create_machine rt "Producer" in
  check bool_t "producer alive and done" true (Api.is_alive rt h);
  (* all credits returned: producer idles in Produce with no queued events *)
  check int_t "producer queue drained" 0 (Api.queue_length rt h)

(* ---------------- foreign functions and external memory ---------------- *)

type Context.ext += Counter of int ref

let test_external_memory () =
  let rt = runtime_of (P_examples_lib.Switch_led.program ()) in
  let writes = ref 0 in
  Api.register_foreign rt "set_led" (fun ctx _ ->
      (match ctx.Context.external_mem with
      | Some (Counter r) -> incr r
      | _ -> ());
      incr writes;
      Rt_value.Null);
  let h = Api.create_machine rt "SwitchLed" in
  let counted = ref 0 in
  Api.set_context rt h (Counter counted);
  check bool_t "get_context round-trips" true
    (match Api.get_context rt h with Some (Counter r) -> r == counted | _ -> false);
  Api.add_event rt h "SwitchOn" Rt_value.Null;
  Api.add_event rt h "SwitchOff" Rt_value.Null;
  check int_t "foreign sees external memory" 2 !counted;
  check int_t "foreign called per entry" 3 !writes (* initial Off + On + Off *);
  (* a machine resolves its foreigns once; re-registering must replace
     the function it already resolved *)
  let rewrites = ref 0 in
  Api.register_foreign rt "set_led" (fun _ _ ->
      incr rewrites;
      Rt_value.Null);
  Api.add_event rt h "SwitchOn" Rt_value.Null;
  check int_t "the re-registered foreign runs" 1 !rewrites;
  check int_t "the replaced one does not" 3 !writes

let test_unregistered_foreign_fails () =
  let rt = runtime_of (P_examples_lib.Switch_led.program ()) in
  match Api.create_machine rt "SwitchLed" with
  | exception Exec.Runtime_error msg ->
    check bool_t "mentions the function" true (Astring_contains.contains msg "set_led")
  | _ -> Alcotest.fail "unregistered foreign function must fail"

(* ---------------- rt values ---------------- *)

let test_rt_value_ops () =
  let open Rt_value in
  check bool_t "⊥ + 1" true (binop P_compile.Tables.Add Null (Int 1) = Null);
  check bool_t "2 < 3" true (binop P_compile.Tables.Lt (Int 2) (Int 3) = Bool true);
  (match binop P_compile.Tables.Div (Int 1) (Int 0) with
  | exception Type_error _ -> ()
  | _ -> Alcotest.fail "div by zero");
  match truth (Int 1) with
  | exception Type_error _ -> ()
  | _ -> Alcotest.fail "truth of non-bool"

(* ---------------- threads ---------------- *)

let test_two_machines_two_threads () =
  (* two independent switch-led drivers driven from two host threads; the
     per-machine claim flags must keep each consistent *)
  let rt = runtime_of (P_examples_lib.Switch_led.program ()) in
  let states = Hashtbl.create 2 in
  Api.register_foreign rt "set_led" (fun ctx args ->
      (match args with
      | [ Rt_value.Bool b ] -> Hashtbl.replace states ctx.Context.self b
      | _ -> assert false);
      Rt_value.Null);
  let h1 = Api.create_machine rt "SwitchLed" in
  let h2 = Api.create_machine rt "SwitchLed" in
  let driver h =
    Thread.create
      (fun () ->
        for i = 1 to 500 do
          Api.add_event rt h (if i mod 2 = 1 then "SwitchOn" else "SwitchOff") Rt_value.Null
        done)
      ()
  in
  let t1 = driver h1 and t2 = driver h2 in
  Thread.join t1;
  Thread.join t2;
  check bool_t "machine 1 consistent" true (Hashtbl.find states h1 = false);
  check bool_t "machine 2 consistent" true (Hashtbl.find states h2 = false);
  check bool_t "both alive" true (Api.is_alive rt h1 && Api.is_alive rt h2)

(* ---------------- inbox scalability ---------------- *)

let test_inbox_bulk_enqueue_is_fast () =
  (* regression for the O(n²) list-append inbox: 10k distinct enqueues and
     a full FIFO drain must complete in linear-ish time *)
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile (P_examples_lib.Pingpong.program ())
  in
  let ctx = Context.create ~self:0 ~ty:0 ~table:driver.dr_machines.(0) () in
  (* drop entry code from the agenda so only the queue is in play *)
  ctx.Context.agenda <- [];
  let n = 10_000 in
  let t0 = Sys.time () in
  for i = 1 to n do
    ignore (Context.enqueue ctx 0 (Rt_value.Int i) : Context.enqueue_result)
  done;
  check int_t "all queued" n (Context.inbox_length ctx);
  (* the deduplicating ⊕ drops an identical (event, payload) pair *)
  ignore (Context.enqueue ctx 0 (Rt_value.Int 1) : Context.enqueue_result);
  check int_t "duplicate dropped" n (Context.inbox_length ctx);
  (* drain in FIFO order *)
  let ok = ref true in
  for i = 1 to n do
    match Context.dequeue ctx with
    | Some (0, Rt_value.Int j) when j = i -> ()
    | _ -> ok := false
  done;
  check bool_t "FIFO order preserved" true !ok;
  check int_t "drained" 0 (Context.inbox_length ctx);
  let elapsed = Sys.time () -. t0 in
  check bool_t
    (Printf.sprintf "linear-ish time (%.3fs)" elapsed)
    true (elapsed < 2.0)

let test_inbox_interleaved_enqueue_dequeue () =
  (* enqueues racing a partially drained front list must not reorder *)
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile (P_examples_lib.Pingpong.program ())
  in
  let ctx = Context.create ~self:0 ~ty:0 ~table:driver.dr_machines.(0) () in
  ctx.Context.agenda <- [];
  ignore (Context.enqueue ctx 0 (Rt_value.Int 1) : Context.enqueue_result);
  ignore (Context.enqueue ctx 0 (Rt_value.Int 2) : Context.enqueue_result);
  check bool_t "first out" true (Context.dequeue ctx = Some (0, Rt_value.Int 1));
  ignore (Context.enqueue ctx 0 (Rt_value.Int 3) : Context.enqueue_result);
  check bool_t "second out" true (Context.dequeue ctx = Some (0, Rt_value.Int 2));
  (* a dequeued pair may be enqueued again — membership must have aged out *)
  ignore (Context.enqueue ctx 0 (Rt_value.Int 1) : Context.enqueue_result);
  check bool_t "third out" true (Context.dequeue ctx = Some (0, Rt_value.Int 3));
  check bool_t "re-enqueued out" true (Context.dequeue ctx = Some (0, Rt_value.Int 1));
  check bool_t "empty" true (Context.dequeue ctx = None)

let test_inbox_dedup_across_scan_limit () =
  (* ⊕ membership is a scan of the two lists up to [Context.scan_limit]
     entries and a counting table beyond it; both must agree with ⊕ *)
  let { P_compile.Compile.driver; _ } =
    P_compile.Compile.compile (P_examples_lib.Pingpong.program ())
  in
  let ctx = Context.create ~self:0 ~ty:0 ~table:driver.dr_machines.(0) () in
  ctx.Context.agenda <- [];
  let enq i = Context.enqueue ctx 0 (Rt_value.Int i) in
  let deq () = Context.dequeue ctx in
  let has_table () = ctx.Context.inbox.ib_members <> None in
  check bool_t "first copy" true (enq 0 = Context.Enq_ok);
  (* a duplication fault's forced copy, queued before any table exists *)
  check bool_t "forced copy" true
    (Context.enqueue_no_dedup ctx 0 (Rt_value.Int 0) = Context.Enq_ok);
  check bool_t "absorbed below the limit" true (enq 0 = Context.Enq_duplicate);
  check bool_t "no table below the limit" false (has_table ());
  for i = 1 to Context.scan_limit do
    check bool_t "distinct entries queue" true (enq i = Context.Enq_ok)
  done;
  check bool_t "table built past the limit" true (has_table ());
  check bool_t "absorbed above the limit" true (enq Context.scan_limit = Context.Enq_duplicate);
  check bool_t "first copy out" true (deq () = Some (0, Rt_value.Int 0));
  check bool_t "the forced copy is still counted" true (enq 0 = Context.Enq_duplicate);
  check bool_t "forced copy out" true (deq () = Some (0, Rt_value.Int 0));
  check bool_t "membership leaves with the last copy" true (enq 0 = Context.Enq_ok);
  for i = 1 to Context.scan_limit do
    check bool_t "FIFO order" true (deq () = Some (0, Rt_value.Int i))
  done;
  check bool_t "re-enqueued entry last" true (deq () = Some (0, Rt_value.Int 0));
  check bool_t "drained" true (deq () = None);
  check bool_t "an empty mailbox drops its table" false (has_table ());
  check bool_t "a drained pair is accepted again" true (enq 1 = Context.Enq_ok);
  (* restart clears membership on both sides of the limit *)
  Context.restart ctx;
  check bool_t "restart clears a short mailbox" true (enq 1 = Context.Enq_ok);
  for i = 2 to Context.scan_limit + 2 do
    ignore (enq i : Context.enqueue_result)
  done;
  check bool_t "table built again" true (has_table ());
  Context.restart ctx;
  check bool_t "restart drops the table" false (has_table ());
  check int_t "restart empties the mailbox" 0 (Context.inbox_length ctx);
  check bool_t "restart clears a long mailbox" true (enq 5 = Context.Enq_ok)

let suite =
  [ Alcotest.test_case "pingpong runs" `Quick test_pingpong_runs;
    Alcotest.test_case "inbox bulk enqueue" `Quick test_inbox_bulk_enqueue_is_fast;
    Alcotest.test_case "inbox interleaving" `Quick test_inbox_interleaved_enqueue_dequeue;
    Alcotest.test_case "inbox ⊕ across the scan limit" `Quick test_inbox_dedup_across_scan_limit;
    Alcotest.test_case "add_event drives" `Quick test_add_event_drives_machine;
    Alcotest.test_case "assert raises" `Quick test_runtime_assert_raises;
    Alcotest.test_case "unhandled raises" `Quick test_runtime_unhandled_event_raises;
    Alcotest.test_case "send to deleted" `Quick test_runtime_send_to_deleted_raises;
    Alcotest.test_case "unknown names" `Quick test_runtime_unknowns;
    Alcotest.test_case "bounded buffer" `Quick test_bounded_buffer_in_runtime;
    Alcotest.test_case "external memory" `Quick test_external_memory;
    Alcotest.test_case "unregistered foreign" `Quick test_unregistered_foreign_fails;
    Alcotest.test_case "rt values" `Quick test_rt_value_ops;
    Alcotest.test_case "two threads" `Quick test_two_machines_two_threads ]
