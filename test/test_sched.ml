(* The cooperative scheduler ({!P_runtime.Sched}), driven by direct calls
   from machine code, and the sharded serving runtime ({!P_runtime.Shard}):

   - the Causal policy is observably trace-identical to the historical
     nested run-to-completion driver (and hence, via test_equiv, to the
     d = 0 slice of the delaying scheduler);
   - the Fifo serving discipline completes the same programs under
     quantum preemption, which stops a machine at a block boundary and
     resumes it from its context alone (no continuation is captured);
   - typed backpressure holds at every layer: Context mailbox bounds,
     the Api Shed/overflow contract, scheduler-level silent shedding,
     and the shard ingress bound;
   - a multi-shard fleet spawns and converses across domains through
     the batched transfer queues. *)

module Rt_value = P_runtime.Rt_value
module Trace = P_semantics.Trace
module Context = P_runtime.Context
module Exec = P_runtime.Exec
module Api = P_runtime.Api
module Sched = P_runtime.Sched
module Shard = P_runtime.Shard

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let state_t = Alcotest.option Alcotest.string

let compile p = (P_compile.Compile.compile p).P_compile.Compile.driver
let item_t = Alcotest.testable Trace.pp_item ( = )

let nested_trace driver main =
  let rt = Api.create driver in
  let items = ref [] in
  Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
  let _ = Api.create_machine rt main in
  Trace.observable (List.rev !items)

let causal_trace driver main =
  let s = Sched.create ~policy:Sched.Causal driver in
  let items = ref [] in
  Api.set_trace_hook (Sched.exec s) (Some (fun it -> items := it :: !items));
  let _ = Sched.create_machine s main in
  Trace.observable (List.rev !items)

(* ------------------------------------------------------------------ *)
(* Causal policy ≡ nested driver                                       *)
(* ------------------------------------------------------------------ *)

let test_causal_matches_nested () =
  List.iter
    (fun (name, program, main) ->
      let driver = compile program in
      check (Alcotest.list item_t) name (nested_trace driver main)
        (causal_trace driver main))
    [ ("pingpong-1", P_examples_lib.Pingpong.program ~rounds:1 (), "Pinger");
      ("pingpong-5", P_examples_lib.Pingpong.program ~rounds:5 (), "Pinger");
      ( "boundedbuffer-4-2",
        P_examples_lib.Bounded_buffer.program ~items:4 ~credits:2 (),
        "Producer" ) ]

(* ------------------------------------------------------------------ *)
(* Fifo serving discipline                                             *)
(* ------------------------------------------------------------------ *)

let test_fifo_completes () =
  let driver = compile (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let s = Sched.create ~policy:Sched.Fifo driver in
  let h = Sched.create_machine s "Pinger" in
  (* serving discipline: creation only schedules; nothing ran yet *)
  check int_t "start entry is parked in the ready queue" 1 (Sched.ready_length s);
  Sched.run s;
  check int_t "quiescent" 0 (Sched.ready_length s);
  check state_t "pinger played all rounds" (Some "Finished")
    (Api.current_state_name (Sched.exec s) h);
  let st = Sched.stats s in
  check bool_t "activations counted" true (st.Sched.st_activations > 0);
  check bool_t "deliveries counted" true (st.Sched.st_sends > 0);
  check bool_t "dequeues counted" true (st.Sched.st_dequeues > 0);
  check int_t "one spawn (the ponger)" 1 st.Sched.st_spawns;
  check int_t "nothing shed" 0 st.Sched.st_shed_mailbox

(* Preemption returns from the machine loop at a block boundary and the
   scheduler resumes the machine by activating it again: the context is
   all there is. A 1-dequeue quantum must therefore send exactly what the
   default quantum sends and end in the same states. Its dequeues differ
   only by what ⊕ absorbs under the other interleaving; neither program
   here sends the same (event, payload) pair twice in flight — the bounded
   buffer's consumer numbers its [Credit]s — so every send is dequeued. *)
let test_quantum_preemption () =
  let run ?quantum program main =
    let s = Sched.create ~policy:Sched.Fifo ?quantum (compile program) in
    let (_ : int) = Sched.create_machine s main in
    Sched.run s;
    let rt = Sched.exec s in
    (List.init rt.Exec.next_handle (Api.current_state_name rt), Sched.stats s)
  in
  List.iter
    (fun (name, program, main, absorbed) ->
      let states, st = run program main in
      let states1, st1 = run ~quantum:1 program main in
      check (Alcotest.list state_t) (name ^ ": same final states") states states1;
      check int_t (name ^ ": same sends") st.Sched.st_sends st1.Sched.st_sends;
      check int_t (name ^ ": dequeues, default quantum") (st.Sched.st_sends - absorbed)
        st.Sched.st_dequeues;
      check int_t (name ^ ": dequeues, quantum 1") st1.Sched.st_sends st1.Sched.st_dequeues;
      check int_t (name ^ ": never preempted by default") 0 st.Sched.st_yields;
      check bool_t (name ^ ": preempted under quantum 1") true (st1.Sched.st_yields > 0))
    [ ("pingpong-8", P_examples_lib.Pingpong.program ~rounds:8 (), "Pinger", 0);
      ( "boundedbuffer-6-2",
        P_examples_lib.Bounded_buffer.program ~items:6 ~credits:2 (),
        "Producer",
        0 ) ];
  let states1, _ = run ~quantum:1 (P_examples_lib.Pingpong.program ~rounds:8 ()) "Pinger" in
  check state_t "pinger completes under a 1-dequeue quantum" (Some "Finished")
    (List.hd states1)

(* ------------------------------------------------------------------ *)
(* Backpressure, layer by layer                                        *)
(* ------------------------------------------------------------------ *)

(* A machine that never consumes [E]: the smallest program whose mailbox
   fills, isolating the capacity path from program behavior. *)
let defer_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Idle" ~defer:[ "E" ] ~entry:skip ] ]
    "M"

let test_context_capacity () =
  let driver = compile (defer_program ()) in
  let table = driver.P_compile.Tables.dr_machines.(0) in
  let ctx = Context.create ~capacity:2 ~self:1 ~ty:0 ~table () in
  let enq payload = Context.enqueue ctx 0 (Rt_value.Int payload) in
  check bool_t "first enqueue" true (enq 1 = Context.Enq_ok);
  check bool_t "⊕ absorbs duplicates below capacity" true (enq 1 = Context.Enq_duplicate);
  check bool_t "second enqueue" true (enq 2 = Context.Enq_ok);
  check bool_t "full mailbox overflows" true (enq 3 = Context.Enq_overflow);
  check int_t "overflow enqueued nothing" 2 (Context.inbox_length ctx);
  (* membership is checked before the bound: a duplicate of a queued entry
     is still absorbed at a full mailbox (it occupies no new slot) *)
  check bool_t "⊕ absorbs duplicates at capacity" true (enq 2 = Context.Enq_duplicate);
  check bool_t "capacity must be positive" true
    (try
       ignore (Context.create ~capacity:0 ~self:2 ~ty:0 ~table () : Context.t);
       false
     with Invalid_argument _ -> true)

let test_api_backpressure () =
  let driver = compile (defer_program ()) in
  let rt = Api.create driver in
  Api.set_mailbox_capacity rt 1;
  let h = Api.create_machine rt "M" in
  check bool_t "first event admitted" true
    (Api.try_add_event rt h "E" (Rt_value.Int 1) <> Context.Shed);
  check bool_t "second event shed" true
    (Api.try_add_event rt h "E" (Rt_value.Int 2) = Context.Shed);
  check bool_t "duplicate absorbed, not shed" true
    (Api.try_add_event rt h "E" (Rt_value.Int 1) <> Context.Shed);
  check int_t "mailbox stayed at its bound" 1 (Api.queue_length rt h);
  check bool_t "add_event raises on the same condition" true
    (try
       Api.add_event rt h "E" (Rt_value.Int 3);
       false
     with Exec.Mailbox_overflow { capacity = 1; _ } -> true)

let test_sched_mailbox_shed () =
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:2 driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  check bool_t "admitted" true (Sched.add_event s h "E" (Rt_value.Int 1) = Context.Queued);
  check bool_t "admitted" true (Sched.add_event s h "E" (Rt_value.Int 2) = Context.Queued);
  check bool_t "shed at the bound" true
    (Sched.add_event s h "E" (Rt_value.Int 3) = Context.Shed);
  Sched.run s;
  let st = Sched.stats s in
  check int_t "sheds counted" 1 st.Sched.st_shed_mailbox;
  check int_t "mailbox bounded" 2 (Api.queue_length (Sched.exec s) h)

(* ------------------------------------------------------------------ *)
(* Sharded fleet                                                       *)
(* ------------------------------------------------------------------ *)

let test_shard_fleet () =
  let driver = compile (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let t = Shard.create ~shards:4 driver in
  let handles = List.init 64 (fun _ -> Shard.create_machine t "Pinger") in
  Shard.start t;
  check bool_t "fleet quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  List.iter
    (fun h ->
      check state_t "every pinger finished" (Some "Finished")
        (Api.current_state_name (Shard.exec_of t (Shard.home t h)) h))
    handles;
  check int_t "each pinger spawned its ponger" 64 st.Shard.sh_spawns;
  check int_t "pongers deleted themselves" 64 st.Shard.sh_machines;
  check bool_t "conversations crossed shards" true (st.Shard.sh_xfer_msgs > 0);
  check int_t "nothing shed" 0 (st.Shard.sh_shed_mailbox + st.Shard.sh_shed_ingress);
  check int_t "no dead letters" 0 st.Shard.sh_dead_letters

let test_shard_ingress_shed () =
  let driver = compile (defer_program ()) in
  let t = Shard.create ~shards:1 ~ingress_capacity:4 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  let outcomes = List.init 10 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  let shed = List.length (List.filter (fun o -> o = Context.Shed) outcomes) in
  check int_t "posts above the ingress bound shed synchronously" 6 shed;
  Shard.start t;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "ingress sheds counted" 6 st.Shard.sh_shed_ingress;
  check int_t "admitted posts were all delivered" 4
    (Api.queue_length (Shard.exec_of t 0) h)

(* A sink that consumes every [E]: the counting tests need deliveries,
   not mailbox growth. *)
let sink_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Idle" ~entry:skip ] ~steps:[ ("Idle", "E", "Idle") ] ]
    "M"

let test_shard_local_no_xfer () =
  (* host posts ride the ingress queue; with one shard nothing is ever
     cross-shard, so the transfer counters must stay at zero *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:1 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  let outcomes = List.init 50 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "all posts admitted" 50
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "host posts counted as ingress" 50 st.Shard.sh_ingress_msgs;
  check int_t "zero cross-shard batches" 0 st.Shard.sh_xfer_batches;
  check int_t "zero cross-shard messages" 0 st.Shard.sh_xfer_msgs;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "every post served" 50 st.Shard.sh_dequeues

let test_ingress_conservation () =
  (* K producer domains race the ingress bound; every offered post must be
     accounted exactly once: delivered or shed, with its slot released *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:2 ~ingress_capacity:64 driver in
  let machines = Array.init 32 (fun _ -> Shard.create_machine t "M") in
  let e = Shard.event_id t "E" in
  Shard.start t;
  let k = 4 and per = 2000 in
  let queued = Array.make k 0 in
  let producers =
    Array.init k (fun p ->
        Domain.spawn (fun () ->
            let q = ref 0 in
            for i = 0 to per - 1 do
              match
                Shard.post t
                  machines.((p + i) mod Array.length machines)
                  ~event:e
                  (Rt_value.Int ((p * per) + i))
              with
              | Context.Queued -> incr q
              | _ -> ()
            done;
            queued.(p) <- !q))
  in
  Array.iter Domain.join producers;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  let admitted = Array.fold_left ( + ) 0 queued in
  check int_t "each admitted post delivered exactly once" admitted
    st.Shard.sh_ingress_msgs;
  check int_t "shed + delivered = offered" (k * per)
    (st.Shard.sh_shed_ingress + st.Shard.sh_ingress_msgs);
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "no cross-shard traffic from host posts" 0 st.Shard.sh_xfer_msgs

(* A machine that perpetually mails itself: the fleet never goes idle, so
   quiescence must time out (and report it) rather than hang. *)
let spinner_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "Tick" ]
    ~machines:
      [ machine "M"
          [ state "Spin" ~entry:(send this "Tick") ]
          ~steps:[ ("Spin", "Tick", "Spin") ] ]
    "M"

let test_quiesce_timeout () =
  let driver = compile (spinner_program ()) in
  let t = Shard.create ~shards:1 driver in
  let (_ : int) = Shard.create_machine t "M" in
  Shard.start t;
  check bool_t "a busy fleet times out" false (Shard.quiesce ~timeout_s:0.2 t);
  let st = Shard.stop t in
  check bool_t "the spinner was actually running" true (st.Shard.sh_dequeues > 0)

(* Self-deleting machine: posts that arrive after the delete are mail for
   the departed — dead-lettered and dropped, with their slots released. *)
let ephemeral_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Gone" ~entry:delete ] ]
    "M"

let test_dead_letter_counts () =
  let driver = compile (ephemeral_program ()) in
  let t = Shard.create ~shards:1 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  check bool_t "machine deleted itself" true (Shard.quiesce ~timeout_s:60.0 t);
  let outcomes = List.init 7 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "routing admits posts for deleted handles" 7
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "drained the dead letters" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "dead letters counted" 7 st.Shard.sh_dead_letters;
  check int_t "dead letters release their slots" 0 st.Shard.sh_pending;
  check int_t "no live machines" 0 st.Shard.sh_machines

(* ------------------------------------------------------------------ *)
(* Ghost [*] under the scheduler                                       *)
(* ------------------------------------------------------------------ *)

let test_seeded_nondet () =
  (* full tables: the ghost switch (and its [*] choices) survive *)
  let driver = P_compile.Compile.compile_full (P_examples_lib.Switch_led.program ()) in
  let run seed =
    let s = Sched.create ~policy:Sched.Causal ?seed driver in
    let rt = Sched.exec s in
    Api.register_foreign rt "set_led" (fun _ _ -> Rt_value.Null);
    let items = ref [] in
    Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
    let _ = Sched.create_machine s "GhostSwitch" in
    List.rev !items
  in
  let a = run (Some 42) in
  let b = run (Some 42) in
  check bool_t "same seed, same schedule" true (a = b);
  check bool_t "the ghost actually drove the device" true
    (List.length a > 5);
  check bool_t "unseeded * is a runtime error under the scheduler" true
    (try
       ignore (run None : Trace.item list);
       false
     with Exec.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Adversarial host: fault injection under the serving runtime         *)
(* ------------------------------------------------------------------ *)

let plan ?(drop = 0) ?(dup = 0) ?(reorder = 0) ?(crash = 0) seed =
  P_semantics.Fault.with_seed seed
    { P_semantics.Fault.none with drop; dup; reorder; crash }

let test_fault_drop_accounting () =
  (* a dropped send is invisible to the sender (Queued) and charged to
     the drop counter, never to delivery, shedding, or dead letters *)
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:2 ~faults:(plan ~drop:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  let outcomes = List.init 5 (fun i -> Sched.add_event s h "E" (Rt_value.Int i)) in
  check int_t "drops report Queued (the sender can't tell)" 5
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  Sched.run s;
  let st = Sched.stats s in
  check int_t "every send dropped" 5 st.Sched.st_fault_drops;
  check int_t "dropped events were never delivered" 0 st.Sched.st_sends;
  check int_t "mailbox untouched" 0 (Api.queue_length (Sched.exec s) h);
  (* capacity is 2 and we offered 5: without the drops this would shed *)
  check int_t "drops are not sheds" 0 st.Sched.st_shed_mailbox;
  check int_t "drops are not dead letters" 0 st.Sched.st_dead_letters

let test_fault_dup_bypasses_dedup () =
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~faults:(plan ~dup:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  ignore (Sched.add_event s h "E" (Rt_value.Int 7) : Context.backpressure);
  ignore (Sched.add_event s h "E" (Rt_value.Int 7) : Context.backpressure);
  let st = Sched.stats s in
  check int_t "both sends duplicated" 2 st.Sched.st_fault_dups;
  (* fault-free, the second identical send is absorbed by ⊕ and the
     mailbox holds exactly one entry; each injected duplicate bypasses
     dedup once, so the ⊕-absorbed send still lands its extra copy *)
  check int_t "⊕ bypassed: one deduped entry plus two forced copies" 3
    (Api.queue_length (Sched.exec s) h)

let test_fault_reorder_conserves () =
  let driver = compile (sink_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~faults:(plan ~reorder:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  List.iter
    (fun i -> ignore (Sched.add_event s h "E" (Rt_value.Int i) : Context.backpressure))
    [ 1; 2; 3 ];
  Sched.run s;
  let st = Sched.stats s in
  check int_t "every send reordered" 3 st.Sched.st_fault_reorders;
  check int_t "reordering loses nothing" 3 st.Sched.st_dequeues;
  check int_t "mailbox drained" 0 (Api.queue_length (Sched.exec s) h)

let test_fault_crash_restart_mailbox () =
  (* crash-restart at activation: the machine re-enters its initial
     state and its mailbox is cleared — which must also release the
     bounded-mailbox slots, or the bound wedges the restarted machine *)
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:1 ~faults:(plan ~crash:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  check state_t "restarted into its initial state" (Some "Idle")
    (Api.current_state_name (Sched.exec s) h);
  check bool_t "admitted at capacity 1" true
    (Sched.add_event s h "E" (Rt_value.Int 1) = Context.Queued);
  check int_t "mailbox holds it" 1 (Api.queue_length (Sched.exec s) h);
  Sched.run s;
  check int_t "the crash cleared the mailbox" 0 (Api.queue_length (Sched.exec s) h);
  check bool_t "slot released: the bound admits the next event" true
    (Sched.add_event s h "E" (Rt_value.Int 2) = Context.Queued);
  Sched.run s;
  let st = Sched.stats s in
  check bool_t "crash-restarts counted" true (st.Sched.st_crash_restarts >= 3);
  check int_t "crashed mail is never dequeued" 0 st.Sched.st_dequeues;
  check int_t "nothing shed" 0 st.Sched.st_shed_mailbox;
  check state_t "machine survives every crash" (Some "Idle")
    (Api.current_state_name (Sched.exec s) h)

let test_fault_crash_preempted () =
  (* crash-restarts at activation also hit machines a 1-dequeue quantum
     preempted. Pumping one activation at a time accounts for each crash's
     cleared mail, so every post is either dequeued or cleared, exactly *)
  let driver = compile (sink_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~quantum:1 ~faults:(plan ~crash:300 7) driver in
  let h = Sched.create_machine s "M" in
  let rt = Sched.exec s in
  let cleared = ref 0 in
  let pump () =
    let queued = Api.queue_length rt h and crashes = (Sched.stats s).Sched.st_crash_restarts in
    let ran = Sched.run_ready s ~fuel:1 in
    if (Sched.stats s).Sched.st_crash_restarts > crashes then cleared := !cleared + queued;
    ran > 0
  in
  for i = 0 to 59 do
    ignore (Sched.add_event s h "E" (Rt_value.Int i) : Context.backpressure);
    if i mod 3 = 0 then ignore (pump () : bool)
  done;
  while pump () do () done;
  let st = Sched.stats s in
  check bool_t "crash-restarts injected" true (st.Sched.st_crash_restarts > 0);
  check bool_t "machines were preempted" true (st.Sched.st_yields > 0);
  check int_t "every post delivered" 60 st.Sched.st_sends;
  check int_t "dequeued + cleared by crashes = posted" 60 (st.Sched.st_dequeues + !cleared);
  check int_t "quiescent" 0 (Sched.ready_length s);
  check int_t "mailbox drained" 0 (Api.queue_length rt h);
  check state_t "machine survives every crash" (Some "Idle") (Api.current_state_name rt h)

let test_fault_schedule_deterministic () =
  (* same workload + same plan ⇒ same fault schedule: stats and the full
     observable trace are bit-identical across runs *)
  let run () =
    let driver = compile (sink_program ()) in
    let s =
      Sched.create ~policy:Sched.Fifo
        ~faults:(plan ~drop:300 ~dup:250 ~reorder:250 ~crash:150 11)
        driver
    in
    let items = ref [] in
    Api.set_trace_hook (Sched.exec s) (Some (fun it -> items := it :: !items));
    let h = Sched.create_machine s "M" in
    for i = 0 to 49 do
      ignore (Sched.add_event s h "E" (Rt_value.Int i) : Context.backpressure);
      if i mod 8 = 0 then Sched.run s
    done;
    Sched.run s;
    (Sched.stats s, List.rev !items)
  in
  let st1, tr1 = run () in
  let st2, tr2 = run () in
  check bool_t "identical stats under the same plan" true (st1 = st2);
  check bool_t "identical traces under the same plan" true (tr1 = tr2);
  check bool_t "the adversary actually injected" true
    (st1.Sched.st_fault_drops + st1.Sched.st_fault_dups + st1.Sched.st_fault_reorders
     + st1.Sched.st_crash_restarts
    > 0)

let test_shard_fault_conservation () =
  (* exact slot conservation under an adversarial host: every offered
     post is delivered, dropped, or duplicated — dequeues must equal
     offered - drops + forced duplicates, with every ingress slot
     released *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:2 ~faults:(plan ~drop:400 ~dup:300 ~reorder:200 5) driver in
  let machines = Array.init 8 (fun _ -> Shard.create_machine t "M") in
  let e = Shard.event_id t "E" in
  Shard.start t;
  Array.iteri
    (fun i h ->
      for j = 0 to 24 do
        ignore (Shard.post t h ~event:e (Rt_value.Int ((i * 25) + j)) : Context.backpressure)
      done)
    machines;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check bool_t "drops injected" true (st.Shard.sh_fault_drops > 0);
  check bool_t "dups injected" true (st.Shard.sh_fault_dups > 0);
  check bool_t "reorders injected" true (st.Shard.sh_fault_reorders > 0);
  check int_t "every post reached its home shard" 200 st.Shard.sh_ingress_msgs;
  check int_t "dequeues = offered - drops + duplicates"
    (200 - st.Shard.sh_fault_drops + st.Shard.sh_fault_dups)
    st.Shard.sh_dequeues;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "nothing shed" 0 (st.Shard.sh_shed_mailbox + st.Shard.sh_shed_ingress)

let test_shard_dead_letters_exact_under_drops () =
  (* the send fault point sits on *live* targets only: mail for departed
     machines is dead-lettered exactly, never charged as a drop *)
  let driver = compile (ephemeral_program ()) in
  let t = Shard.create ~shards:1 ~faults:(plan ~drop:1000 0) driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  check bool_t "machine deleted itself" true (Shard.quiesce ~timeout_s:60.0 t);
  let outcomes = List.init 7 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "posts admitted" 7
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "drained" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "dead letters exact" 7 st.Shard.sh_dead_letters;
  check int_t "no drops charged for dead mail" 0 st.Shard.sh_fault_drops;
  check int_t "dead letters release their slots" 0 st.Shard.sh_pending

let test_shard_crash_restart () =
  let driver = compile (defer_program ()) in
  let t = Shard.create ~shards:1 ~capacity:4 ~faults:(plan ~crash:1000 0) driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  ignore (Shard.quiesce ~timeout_s:60.0 t : bool);
  List.iter
    (fun i -> ignore (Shard.post t h ~event:e (Rt_value.Int i) : Context.backpressure))
    [ 0; 1; 2 ];
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check bool_t "crash-restarts counted" true (st.Shard.sh_crash_restarts > 0);
  check state_t "machine survives in its initial state" (Some "Idle")
    (Api.current_state_name (Shard.exec_of t (Shard.home t h)) h);
  check int_t "crashed mail was cleared" 0
    (Api.queue_length (Shard.exec_of t (Shard.home t h)) h);
  check int_t "within the bound: nothing shed" 0 st.Shard.sh_shed_mailbox;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending

let suite =
  [ Alcotest.test_case "causal policy ≡ nested driver" `Quick test_causal_matches_nested;
    Alcotest.test_case "fifo serving completes pingpong" `Quick test_fifo_completes;
    Alcotest.test_case "quantum preemption" `Quick test_quantum_preemption;
    Alcotest.test_case "context mailbox capacity" `Quick test_context_capacity;
    Alcotest.test_case "api backpressure contract" `Quick test_api_backpressure;
    Alcotest.test_case "scheduler sheds at bounded mailboxes" `Quick test_sched_mailbox_shed;
    Alcotest.test_case "4-shard pingpong fleet" `Quick test_shard_fleet;
    Alcotest.test_case "shard ingress backpressure" `Quick test_shard_ingress_shed;
    Alcotest.test_case "single shard: zero transfer batches" `Quick test_shard_local_no_xfer;
    Alcotest.test_case "ingress slot conservation" `Quick test_ingress_conservation;
    Alcotest.test_case "quiesce timeout returns false" `Quick test_quiesce_timeout;
    Alcotest.test_case "dead letters after delete" `Quick test_dead_letter_counts;
    Alcotest.test_case "seeded ghost choices" `Quick test_seeded_nondet;
    Alcotest.test_case "fault: drop accounting" `Quick test_fault_drop_accounting;
    Alcotest.test_case "fault: dup bypasses ⊕" `Quick test_fault_dup_bypasses_dedup;
    Alcotest.test_case "fault: reorder conserves" `Quick test_fault_reorder_conserves;
    Alcotest.test_case "fault: crash-restart mailbox" `Quick test_fault_crash_restart_mailbox;
    Alcotest.test_case "fault: crash-restart preempted" `Quick test_fault_crash_preempted;
    Alcotest.test_case "fault: deterministic schedule" `Quick test_fault_schedule_deterministic;
    Alcotest.test_case "shard fault conservation" `Quick test_shard_fault_conservation;
    Alcotest.test_case "shard dead letters under drops" `Quick
      test_shard_dead_letters_exact_under_drops;
    Alcotest.test_case "shard crash-restart" `Quick test_shard_crash_restart ]
