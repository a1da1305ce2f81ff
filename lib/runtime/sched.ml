(** The cooperative scheduler: one domain multiplexing many machines over
    a single {!Exec} runtime in [Scheduled] mode.

    Machine code calls the send, spawn and [*] choice functions installed
    here instead of recursing on the caller's stack, and the scheduler
    decides what a send or spawn *means*:

    - [Causal] replays the nested run-to-completion discipline exactly: a
      send to an idle machine runs the receiver to quiescence, nested
      inside the send, before the sender continues — the d = 0 causal
      schedule, so the observable trace is identical to the threads driver
      (test/test_sched.ml asserts this). Machines are never preempted.
    - [Fifo] is the serving discipline: sends only enqueue and mark the
      receiver ready; machines are activated from a FIFO ready queue and
      preempted at block boundaries when their quantum runs out, so one
      chatty machine cannot starve ten thousand quiet ones. A preempted
      machine's context holds all of its state, so it resumes by being
      activated again: no fiber or continuation is ever captured.

    Everything here runs on one domain, so contexts need no locking; the
    shard layer ({!Shard}) pins one scheduler per domain and routes
    cross-shard traffic through its transfer queues via the [router]. *)

module Tables = P_compile.Tables

type policy = Causal | Fifo

(** Hooks the shard layer installs to stretch one scheduler across many:
    a global handle allocator, the home predicate, and the cross-shard
    send/spawn paths (which enqueue into another shard's transfer queue
    and never touch its contexts directly). *)
type router = {
  rt_alloc : unit -> int;
  rt_home : int -> bool;
  rt_send :
    src:int -> dst:int -> event:int -> payload:Rt_value.t -> Context.backpressure;
  rt_spawn :
    handle:int -> creator:int -> ty:int -> inits:(int * Rt_value.t) list -> unit;
}

type meters = {
  sm_activations : P_obs.Metrics.counter;  (** [runtime.sched_activations] *)
  sm_yields : P_obs.Metrics.counter;  (** [runtime.sched_yields] *)
  sm_shed_mailbox : P_obs.Metrics.counter;  (** [runtime.sched_shed_mailbox] *)
  sm_dead_letters : P_obs.Metrics.counter;  (** [runtime.sched_dead_letters] *)
  sm_faults : P_obs.Metrics.counter;  (** [runtime.sched_faults] (all classes) *)
  sm_ready_hwm : P_obs.Metrics.gauge;  (** [runtime.sched_ready_hwm] *)
}

(** The scheduler's adversarial-host state: the pure {!P_semantics.Fault}
    plan plus this scheduler's own monotone fault-point counter, so
    decisions are a deterministic function of the plan's seed and the
    order this scheduler reaches its fault points (sends and
    activations). Single-writer like the other counters. *)
type faults = {
  sf_plan : P_semantics.Fault.plan;
  mutable sf_next : int;  (** next fault index *)
  mutable sf_drops : int;
  mutable sf_dups : int;
  mutable sf_reorders : int;
  mutable sf_crashes : int;
}

let make_faults plan =
  { sf_plan = plan;
    sf_next = 0;
    sf_drops = 0;
    sf_dups = 0;
    sf_reorders = 0;
    sf_crashes = 0 }

type t = {
  rt : Exec.t;
  sc : Exec.sched_mode;  (** the hooks and quantum [rt] runs under *)
  policy : policy;
  ready : Context.t Queue.t;  (** claimed machines awaiting activation *)
  rng : Random.State.t option;  (** resolves ghost [*] when present *)
  router : router option;
  faults : faults option;  (** adversarial host; [None] = well-behaved *)
  mutable meters : meters option;
  (* single-writer counters; cross-domain reads (telemetry) may be stale *)
  mutable c_sends : int;
  mutable c_spawns : int;
  mutable c_activations : int;
  mutable c_yields : int;
  mutable c_shed_mailbox : int;
  mutable c_dead_letters : int;
  mutable ready_hwm : int;
  (* last values pushed to [meters], so flushes add deltas *)
  mutable f_activations : int;
  mutable f_yields : int;
  mutable f_shed_mailbox : int;
  mutable f_dead_letters : int;
  mutable f_faults : int;
}

type stats = {
  st_sends : int;  (** local deliveries (deduplicated sends included) *)
  st_spawns : int;
  st_activations : int;
  st_yields : int;  (** quantum preemptions (Fifo only) *)
  st_shed_mailbox : int;  (** drops at a full bounded mailbox *)
  st_dead_letters : int;  (** sends to deleted machines (Fifo only) *)
  st_dequeues : int;  (** events processed by this scheduler's runtime *)
  st_ready_hwm : int;  (** ready-queue high-water mark *)
  st_fault_drops : int;  (** injected drops (event lost on the wire) *)
  st_fault_dups : int;  (** injected duplications (⊕ bypassed once) *)
  st_fault_reorders : int;  (** injected reorders (front-of-queue insert) *)
  st_crash_restarts : int;  (** injected crash-restarts at activation *)
}

let fault_total (sf : faults) =
  sf.sf_drops + sf.sf_dups + sf.sf_reorders + sf.sf_crashes

let exec t = t.rt

let set_metrics t (reg : P_obs.Metrics.t option) : unit =
  Exec.set_metrics t.rt reg;
  t.meters <-
    Option.map
      (fun reg ->
        { sm_activations = P_obs.Metrics.counter reg "runtime.sched_activations";
          sm_yields = P_obs.Metrics.counter reg "runtime.sched_yields";
          sm_shed_mailbox = P_obs.Metrics.counter reg "runtime.sched_shed_mailbox";
          sm_dead_letters = P_obs.Metrics.counter reg "runtime.sched_dead_letters";
          sm_faults = P_obs.Metrics.counter reg "runtime.sched_faults";
          sm_ready_hwm = P_obs.Metrics.gauge reg "runtime.sched_ready_hwm" })
      reg

(** Push the counter deltas since the last flush into the metrics
    registry (called by the shard loop at telemetry ticks and once at
    shutdown; counters stay plain ints on the hot path). *)
let flush_metrics t =
  match t.meters with
  | None -> ()
  | Some m ->
    let add c last cur = P_obs.Metrics.add c (cur - last) in
    add m.sm_activations t.f_activations t.c_activations;
    add m.sm_yields t.f_yields t.c_yields;
    add m.sm_shed_mailbox t.f_shed_mailbox t.c_shed_mailbox;
    add m.sm_dead_letters t.f_dead_letters t.c_dead_letters;
    (match t.faults with
    | None -> ()
    | Some sf ->
      let cur = fault_total sf in
      add m.sm_faults t.f_faults cur;
      t.f_faults <- cur);
    P_obs.Metrics.set_max m.sm_ready_hwm (float_of_int t.ready_hwm);
    t.f_activations <- t.c_activations;
    t.f_yields <- t.c_yields;
    t.f_shed_mailbox <- t.c_shed_mailbox;
    t.f_dead_letters <- t.c_dead_letters

let stats t : stats =
  { st_sends = t.c_sends;
    st_spawns = t.c_spawns;
    st_activations = t.c_activations;
    st_yields = t.c_yields;
    st_shed_mailbox = t.c_shed_mailbox;
    st_dead_letters = t.c_dead_letters;
    st_dequeues = Exec.events_dequeued t.rt;
    st_ready_hwm = t.ready_hwm;
    st_fault_drops = (match t.faults with None -> 0 | Some sf -> sf.sf_drops);
    st_fault_dups = (match t.faults with None -> 0 | Some sf -> sf.sf_dups);
    st_fault_reorders = (match t.faults with None -> 0 | Some sf -> sf.sf_reorders);
    st_crash_restarts = (match t.faults with None -> 0 | Some sf -> sf.sf_crashes) }

let ready_length t = Queue.length t.ready

let push_ready t ctx =
  Queue.push ctx t.ready;
  let n = Queue.length t.ready in
  if n > t.ready_hwm then t.ready_hwm <- n

(* ------------------------------------------------------------------ *)
(* Activations                                                         *)
(* ------------------------------------------------------------------ *)

(* Run a claimed machine until it quiesces, or (Fifo) until its quantum
   runs out at a block boundary: then it stays claimed and goes to the
   back of the ready queue. *)
let run_activation t (ctx : Context.t) =
  Exec.run_machine t.rt ctx;
  if t.sc.sc_preempted then begin
    t.sc.sc_preempted <- false;
    t.c_yields <- t.c_yields + 1;
    push_ready t ctx
  end
  else ctx.scheduled <- false

(* Activate an idle machine: claim it and run it (Causal), or just mark
   it ready (Fifo). *)
let rec activate t (target : Context.t) : Context.backpressure =
  if target.Context.scheduled || not target.Context.alive then Context.Queued
  else begin
    target.Context.scheduled <- true;
    match t.policy with
    | Causal ->
      (* the receiver preempts the sender and quiesces first — the d = 0
         causal stack order of the nested driver *)
      t.c_activations <- t.c_activations + 1;
      run_activation t target;
      Context.Accepted
    | Fifo ->
      push_ready t target;
      Context.Queued
  end

and local_send t ~src dst event payload : Context.backpressure =
  let rt = t.rt in
  match Exec.find_instance rt dst with
  | None -> (
    match t.policy with
    | Causal ->
      (* equivalence with the nested driver demands the same error *)
      Exec.error "send to deleted machine #%d (event %s)" dst
        (Exec.event_name rt event)
    | Fifo ->
      (* a serving system drops mail for the departed and keeps going *)
      t.c_dead_letters <- t.c_dead_letters + 1;
      Context.Shed)
  | Some target -> (
    (* fault point: one index per send whose target exists, like the
       interpreter's hook after target resolution *)
    let decision =
      match t.faults with
      | None -> P_semantics.Fault.Deliver
      | Some sf ->
        let index = sf.sf_next in
        sf.sf_next <- index + 1;
        P_semantics.Fault.on_send sf.sf_plan ~index
    in
    match decision with
    | P_semantics.Fault.Drop ->
      (* dropped on the wire: the sender observes a normal queued send;
         the slot accounting above us is unaffected because nothing was
         accepted into a mailbox *)
      (match t.faults with
      | Some sf -> sf.sf_drops <- sf.sf_drops + 1
      | None -> ());
      Context.Queued
    | (P_semantics.Fault.Deliver | P_semantics.Fault.Duplicate
      | P_semantics.Fault.Reorder) as decision -> (
    let enq =
      match decision with
      | P_semantics.Fault.Deliver | P_semantics.Fault.Drop ->
        Context.enqueue target event payload
      | P_semantics.Fault.Duplicate -> (
        match Context.enqueue target event payload with
        | Context.Enq_overflow -> Context.Enq_overflow
        | Context.Enq_ok | Context.Enq_duplicate ->
          (match t.faults with
          | Some sf -> sf.sf_dups <- sf.sf_dups + 1
          | None -> ());
          Context.enqueue_no_dedup target event payload)
      | P_semantics.Fault.Reorder ->
        (match t.faults with
        | Some sf -> sf.sf_reorders <- sf.sf_reorders + 1
        | None -> ());
        Context.enqueue_front target event payload
    in
    match enq with
    | Context.Enq_overflow ->
      t.c_shed_mailbox <- t.c_shed_mailbox + 1;
      (match t.policy with
      | Causal -> Exec.raise_overflow rt dst event
      | Fifo -> Context.Shed)
    | Context.Enq_ok | Context.Enq_duplicate ->
      t.c_sends <- t.c_sends + 1;
      (match rt.Exec.meters with
      | None -> ()
      | Some m ->
        P_obs.Metrics.incr m.Exec.rm_sends;
        P_obs.Metrics.set_max m.Exec.rm_queue_hwm
          (float_of_int (Context.inbox_length target)));
      if rt.Exec.trace_hook <> None then
        Exec.emit rt (Exec.sent_item rt ~src dst event payload);
      activate t target))

and route_send t ~src dst event payload : Context.backpressure =
  match t.router with
  | Some r when not (r.rt_home dst) -> r.rt_send ~src ~dst ~event ~payload
  | _ -> local_send t ~src dst event payload

and spawn_child t ~creator ty inits : int =
  t.c_spawns <- t.c_spawns + 1;
  match t.router with
  | Some r ->
    let handle = r.rt_alloc () in
    if r.rt_home handle then adopt_spawn t ~handle ~creator:(Some creator) ty inits
    else r.rt_spawn ~handle ~creator ~ty ~inits;
    handle
  | None ->
    let handle = Exec.fresh_handle t.rt in
    adopt_spawn t ~handle ~creator:(Some creator) ty inits;
    handle

(** Materialize a machine with a pre-allocated handle (local spawns and
    the shard layer's remote-spawn delivery) and schedule its entry. *)
and adopt_spawn t ~handle ~creator ty inits : unit =
  let child = Exec.adopt_instance t.rt ~self:handle ~creator ty in
  List.iter (fun (y, v) -> Exec.assign child y v) inits;
  let (_ : Context.backpressure) = activate t child in
  ()

(* A ghost [*] under the scheduler: drawn from the seeded generator. *)
let choose t (ctx : Context.t) =
  match t.rng with
  | Some st -> Random.State.bool st
  | None ->
    Exec.error "machine %s #%d: nondeterministic '*' needs a seed in scheduled mode"
      ctx.table.mt_name ctx.self

let create ?(policy = Fifo) ?(quantum = 64) ?capacity ?seed ?faults ?router
    (driver : Tables.driver) : t =
  let rt = Exec.create driver in
  (match capacity with None -> () | Some c -> Exec.set_mailbox_capacity rt c);
  (* causal machines run to completion: an infinite quantum never preempts *)
  let quantum = match policy with Causal -> max_int | Fifo -> quantum in
  let rec t =
    { rt;
      sc =
        { Exec.sc_quantum = quantum;
          sc_left = quantum;
          sc_preempted = false;
          sc_send = (fun ~src dst event payload -> route_send t ~src dst event payload);
          sc_spawn = (fun ~creator ty inits -> spawn_child t ~creator ty inits);
          sc_choose = (fun ctx -> choose t ctx) };
      policy;
      ready = Queue.create ();
      rng = Option.map (fun s -> Random.State.make [| s |]) seed;
      router;
      faults =
        (match faults with
        | Some p when not (P_semantics.Fault.is_none p) -> Some (make_faults p)
        | _ -> None);
      meters = None;
      c_sends = 0;
      c_spawns = 0;
      c_activations = 0;
      c_yields = 0;
      c_shed_mailbox = 0;
      c_dead_letters = 0;
      ready_hwm = 0;
      f_activations = 0;
      f_yields = 0;
      f_shed_mailbox = 0;
      f_dead_letters = 0;
      f_faults = 0 }
  in
  Exec.scheduled_mode rt t.sc;
  t

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

(** Run up to [fuel] activations off the ready queue; returns how many
    ran. Causal schedulers keep their queue empty (everything runs inside
    the posting call), so this is the Fifo pump. *)
let run_ready t ~fuel : int =
  let n = ref 0 in
  while !n < fuel && not (Queue.is_empty t.ready) do
    incr n;
    t.c_activations <- t.c_activations + 1;
    t.sc.sc_left <- t.sc.sc_quantum;
    let ctx = Queue.pop t.ready in
    (* activation is a fault point: the machine about to run may
       crash-restart, keeping its store but losing frames, agenda, and
       mailbox (the {!Context.restart} contract). Safe for preempted
       machines too: they stopped at a block boundary, and the context
       is all there is to resume. *)
    (match t.faults with
    | None -> ()
    | Some sf ->
      if ctx.Context.alive then begin
        let index = sf.sf_next in
        sf.sf_next <- index + 1;
        if P_semantics.Fault.on_block_start sf.sf_plan ~index then begin
          sf.sf_crashes <- sf.sf_crashes + 1;
          Context.restart ctx
        end
      end);
    run_activation t ctx
  done;
  !n

(** Pump until quiescent. *)
let run t : unit =
  while not (Queue.is_empty t.ready) do
    ignore (run_ready t ~fuel:max_int : int)
  done

(* ------------------------------------------------------------------ *)
(* External entry points (the host side of the ingress)                *)
(* ------------------------------------------------------------------ *)

(** Post an event by event id; [src = -1] marks host origin. Causal
    policies run the receiver before returning ([Accepted]); Fifo marks
    it ready for the next {!run_ready} pump. *)
let post t ~src dst event payload : Context.backpressure =
  local_send t ~src dst event payload

let add_event t dst (event : string) payload : Context.backpressure =
  match Tables.event_id_of_name t.rt.Exec.driver event with
  | None -> Exec.error "unknown event %s" event
  | Some e -> post t ~src:(-1) dst e payload

(** Create (and in Causal mode, start) an instance of the named machine
    type, optionally with a caller-allocated handle. *)
let create_machine t ?handle (machine : string) : int =
  match Tables.machine_ty_of_name t.rt.Exec.driver machine with
  | None -> Exec.error "unknown machine type %s" machine
  | Some ty ->
    let self =
      match handle with Some h -> h | None -> Exec.fresh_handle t.rt
    in
    adopt_spawn t ~handle:self ~creator:None ty [];
    self
