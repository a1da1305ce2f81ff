(** The execution engine of the P runtime: an independent, mutable,
    table-driven implementation of the operational semantics, structured
    like the C runtime of section 4.

    Scheduling follows the paper's run-to-completion discipline: the thread
    that delivers an event to an idle machine runs that machine until it has
    nothing left to do. A send to an idle machine runs the receiver *nested*
    on the same thread (the receiver preempts the sender and runs to
    quiescence before the sender resumes), which is exactly the causal
    stack order of the delay-bounded scheduler with d = 0 — the equivalence
    the paper states in section 5 and that test/test_equiv.ml checks. A send
    to a machine that is already running (or scheduled on another thread)
    only enqueues; the receiver's own drain loop picks the event up.

    Thread safety: in [Nested] mode, the one mode in which host threads
    share a runtime, each context has a [scheduled] flag; flags, the
    instance table and every inbox are protected by the runtime's lock,
    which is *not* held while machine code runs, so concurrent host threads
    can drive disjoint machines in parallel (the per-instance locking the
    paper describes). [Stepped] and [Scheduled] runtimes belong to one
    thread and take no lock. *)

module Tables = P_compile.Tables
module Trace = P_semantics.Trace
module Mid = P_semantics.Mid
module Names = P_syntax.Names

exception Runtime_error of string

let error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

type foreign_fn = Context.t -> Rt_value.t list -> Rt_value.t

(** Stepped (differential-replay) mode. Normally the runtime is
    run-to-completion: a send or [new] immediately runs the receiver/child
    nested on the same thread. A checker schedule, however, is a list of
    per-machine atomic blocks, each ending at a scheduling point. With
    [stepped] set, a send only enqueues, [new] only creates, and either one
    raises the yield flag so {!run_machine} stops at the block boundary —
    letting {!step_block} drive the runtime machine-by-machine along a
    recorded schedule. [sp_choices] supplies the block's recorded ghost
    [*] resolutions (full tables lower [*] to {!Tables.cexpr.CNondet}). *)
type stepped = {
  mutable sp_choices : bool list;  (** remaining recorded [*] outcomes *)
  mutable sp_yield : bool;  (** a scheduling point was reached *)
}

exception Choice_needed
(** A [*] was evaluated past the end of [sp_choices]. *)

(** Scheduled mode: a {!Sched} multiplexes many machines on one domain.
    Sends, spawns and [*] choices call the functions the scheduler
    installed instead of recursing on the caller's stack. [sc_left] is the
    running activation's remaining dequeue budget; when it reaches zero the
    machine loop returns at its next dequeue point (a block boundary, where
    the context holds all of the machine's state) with [sc_preempted] set,
    and the scheduler re-queues the machine. Preemption never breaks an
    atomic block, and nothing is captured to resume it. *)
type sched_mode = {
  sc_quantum : int;
  mutable sc_left : int;
  mutable sc_preempted : bool;
  sc_send : src:int -> int -> int -> Rt_value.t -> Context.backpressure;
      (** [sc_send ~src dst event payload] *)
  sc_spawn : creator:int -> int -> (int * Rt_value.t) list -> int;
      (** [sc_spawn ~creator ty inits] returns the child's handle *)
  sc_choose : Context.t -> bool;  (** resolves a ghost [*] *)
}

type mode =
  | Nested  (** run-to-completion on the calling thread (the d = 0 schedule) *)
  | Stepped of stepped  (** differential replay via {!step_block} *)
  | Scheduled of sched_mode  (** activations driven by a {!Sched} *)

exception
  Mailbox_overflow of {
    dst : int;
    event : string;
    capacity : int;
  }
(** A bounded mailbox rejected an event in a mode with no shed path
    (run-to-completion delivery via {!Api.add_event} or a machine-code
    send in [Nested] mode). *)

(** Metric handles resolved once in {!set_metrics}: sends, dequeues and
    machine creations as counters, plus the longest inbox ever seen.
    Updated where the bookkeeping already runs (under the lock in [Nested]
    mode), so the hot path gains no extra synchronization. *)
type rt_meters = {
  rm_sends : P_obs.Metrics.counter;  (** [runtime.sends] *)
  rm_dequeues : P_obs.Metrics.counter;  (** [runtime.dequeues] *)
  rm_creates : P_obs.Metrics.counter;  (** [runtime.creates] *)
  rm_queue_hwm : P_obs.Metrics.gauge;  (** [runtime.queue_len_hwm] *)
}

type t = {
  driver : Tables.driver;
  instances : (int, Context.t) Hashtbl.t;
  mutable next_handle : int;
  foreigns : (string, foreign_fn) Hashtbl.t;
  mutable resolved : foreign_fn option array array;
      (** [resolved.(ty).(f)]: machine type [ty]'s foreign [f], looked up
          by name on its first call; {!register_foreign} clears it *)
  lock : Mutex.t;  (** taken in [Nested] mode only *)
  mutable trace_hook : (Trace.item -> unit) option;
  mutable meters : rt_meters option;
  mutable mode : mode;
      (** [Stepped _] only inside {!step_block}; [Scheduled _] only under a
          {!Sched} *)
  mutable default_capacity : int;
      (** mailbox capacity for instances created from here on *)
  mutable n_dequeued : int;  (** events processed, all modes; cheap stat *)
  mutable fault_plan : P_semantics.Fault.plan option;
      (** deterministic fault injection for {!step_block}-driven replay;
          decisions are a pure function of the plan's seed and [fseq], so
          a stepped run mirrors the interpreter's faults exactly *)
  mutable fseq : int;  (** fault points consumed so far (monotone) *)
}

let unresolved (driver : Tables.driver) =
  Array.map (fun mt -> Array.make (Array.length mt.Tables.mt_foreigns) None) driver.dr_machines

let create (driver : Tables.driver) : t =
  { driver;
    instances = Hashtbl.create 16;
    next_handle = 0;
    foreigns = Hashtbl.create 16;
    resolved = unresolved driver;
    lock = Mutex.create ();
    trace_hook = None;
    meters = None;
    mode = Nested;
    default_capacity = max_int;
    n_dequeued = 0;
    fault_plan = None;
    fseq = 0 }

let is_stepped rt = match rt.mode with Stepped _ -> true | _ -> false
let stepped_yield rt = match rt.mode with Stepped sp -> sp.sp_yield | _ -> false
let set_yield rt = match rt.mode with Stepped sp -> sp.sp_yield <- true | _ -> ()

let set_mailbox_capacity rt capacity =
  if capacity <= 0 then invalid_arg "Exec.set_mailbox_capacity";
  rt.default_capacity <- capacity

let scheduled_mode rt sc =
  if sc.sc_quantum <= 0 then invalid_arg "Exec.scheduled_mode: quantum";
  rt.mode <- Scheduled sc

let events_dequeued rt = rt.n_dequeued

(** Install (or clear) the fault plan stepped execution runs under. An
    all-zero plan is normalized to [None]; the fault-point counter resets,
    so decisions from the next {!step_block} on mirror an interpreter run
    started from the initial configuration under the same plan. *)
let set_fault_plan rt plan =
  rt.fault_plan <-
    (match plan with
    | Some p when not (P_semantics.Fault.is_none p) -> Some p
    | _ -> None);
  rt.fseq <- 0

(* Consume one fault index (stepped mode only; the caller has already
   established the fault point is due, e.g. the send target exists). *)
let send_fault rt : P_semantics.Fault.send_fault =
  match (rt.mode, rt.fault_plan) with
  | Stepped _, Some plan ->
    let index = rt.fseq in
    rt.fseq <- index + 1;
    P_semantics.Fault.on_send plan ~index
  | _ -> P_semantics.Fault.Deliver

(** Point the runtime at a metrics registry ([None] turns metrics off). *)
let set_metrics (rt : t) (reg : P_obs.Metrics.t option) : unit =
  rt.meters <-
    Option.map
      (fun reg ->
        { rm_sends = P_obs.Metrics.counter reg "runtime.sends";
          rm_dequeues = P_obs.Metrics.counter reg "runtime.dequeues";
          rm_creates = P_obs.Metrics.counter reg "runtime.creates";
          rm_queue_hwm = P_obs.Metrics.gauge reg "runtime.queue_len_hwm" })
      reg

(* Trace items are built only under [if tracing rt], so a runtime with no
   hook formats and allocates nothing for them. *)
let tracing rt = rt.trace_hook <> None
let emit rt item = match rt.trace_hook with None -> () | Some f -> f item

(* [f rt x], under the runtime lock in [Nested] mode only. Callers pass
   closed functions, so the unlocked modes allocate no closure. *)
let locked rt f x =
  match rt.mode with
  | Nested -> Mutex.protect rt.lock (fun () -> f rt x)
  | Stepped _ | Scheduled _ -> f rt x

(** Register the implementation of a foreign function (the paper's
    driver-specific C files). *)
let register_foreign rt name fn =
  Hashtbl.replace rt.foreigns name fn;
  rt.resolved <- unresolved rt.driver

let find_instance rt handle = locked rt (fun rt h -> Hashtbl.find_opt rt.instances h) handle

let event_name rt e = fst rt.driver.dr_events.(e)
let state_name (ctx : Context.t) s = ctx.table.mt_states.(s).Tables.st_name

(* Trace items, in the interpreter's vocabulary ({!P_semantics.Trace}). *)
let event_of rt e = Names.Event.of_string (event_name rt e)

let entered (ctx : Context.t) s =
  Trace.Entered
    { mid = Mid.of_int ctx.self; state = Names.State.of_string (state_name ctx s) }

let sent_item rt ~src dst e v =
  Trace.Sent
    { src = Mid.of_int src;
      dst = Mid.of_int dst;
      event = event_of rt e;
      payload = Rt_value.to_value rt.driver v }

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval rt (ctx : Context.t) (e : Tables.cexpr) : Rt_value.t =
  match e with
  | Tables.CThis -> Rt_value.Machine ctx.self
  | Tables.CMsg -> (
    match ctx.msg with Some e -> Rt_value.Event e | None -> Rt_value.Null)
  | Tables.CArg -> ctx.arg
  | Tables.CNull -> Rt_value.Null
  | Tables.CBool b -> Rt_value.Bool b
  | Tables.CInt i -> Rt_value.Int i
  | Tables.CEvent e -> Rt_value.Event e
  | Tables.CVar x -> ctx.vars.(x)
  | Tables.CUnop (op, a) -> Rt_value.unop op (eval rt ctx a)
  | Tables.CBinop (op, a, b) ->
    (* force left-to-right operand evaluation: OCaml's right-to-left
       argument order would consume [*] choices in reverse of the
       interpreter (Step.eval binds the left operand first) *)
    let va = eval rt ctx a in
    let vb = eval rt ctx b in
    Rt_value.binop op va vb
  | Tables.CForeign_call (f, args) -> call_foreign rt ctx f (List.map (eval rt ctx) args)
  | Tables.CNondet -> (
    (* only full (differential) tables contain CNondet; stepped execution
       resolves it from the recorded choice list, scheduled execution asks
       its scheduler (which may hold a seeded generator) *)
    match rt.mode with
    | Nested ->
      error "machine %s #%d: nondeterministic '*' outside stepped mode"
        ctx.table.mt_name ctx.self
    | Scheduled sc -> Rt_value.Bool (sc.sc_choose ctx)
    | Stepped sp -> (
      match sp.sp_choices with
      | [] -> raise Choice_needed
      | b :: rest ->
        sp.sp_choices <- rest;
        Rt_value.Bool b))

and call_foreign rt (ctx : Context.t) f values =
  match rt.resolved.(ctx.ty).(f) with
  | Some fn -> fn ctx values
  | None -> (
    let name = ctx.table.mt_foreigns.(f).fs_name in
    match Hashtbl.find_opt rt.foreigns name with
    | Some fn ->
      rt.resolved.(ctx.ty).(f) <- Some fn;
      fn ctx values
    | None -> error "foreign function %s is not registered" name)

let assign (ctx : Context.t) x v =
  let v =
    match (snd ctx.table.mt_vars.(x), v) with
    | P_syntax.Ptype.Byte, Rt_value.Int i -> Rt_value.Int (i land 0xff)
    | _ -> v
  in
  ctx.vars.(x) <- v

(* ------------------------------------------------------------------ *)
(* The machine loop                                                    *)
(* ------------------------------------------------------------------ *)

(* The CALL rule's pushed handler map (cf. Step.push_amap). *)
let push_amap (ctx : Context.t) (caller_state : int) (amap : Context.handler array) :
    Context.handler array =
  let st = Context.state_table ctx caller_state in
  Array.mapi
    (fun e inherited ->
      if st.Tables.st_steps.(e) <> None || st.Tables.st_calls.(e) <> None then
        Context.HNone
      else
        match st.Tables.st_actions.(e) with
        | Some a -> Context.HAction a
        | None -> if st.Tables.st_deferred.(e) then Context.HDefer else inherited)
    amap

let raise_overflow rt dst e =
  let capacity =
    match find_instance rt dst with
    | Some c -> c.Context.capacity
    | None -> rt.default_capacity
  in
  raise (Mailbox_overflow { dst; event = event_name rt e; capacity })

let rec run_machine rt (ctx : Context.t) : unit =
  let continue = ref true in
  while !continue && ctx.alive && not (stepped_yield rt) do
    match (rt.mode, ctx.agenda) with
    | Scheduled sc, ([] | Context.Handle _ :: _) when sc.sc_left <= 0 ->
      (* Preemption point — only at block boundaries: before a dequeue and
         before handling a raised event, where the context holds all of the
         machine's state, so the scheduler resumes it by running it again.
         Raised events count against the quantum too (CRaise decrements
         it), otherwise a raise-driven generator (entry sends, raises,
         re-enters) never reaches the dequeue point and holds its
         scheduler forever. *)
      sc.sc_preempted <- true;
      continue := false
    | _, [] -> (
      (* DEQUEUE — under a stepped-mode fault plan this is a fault point
         (one index per attempt with something dequeuable, exactly like the
         interpreter); a delay fault takes the second dequeuable entry *)
      let entry =
        match (rt.mode, rt.fault_plan) with
        | Stepped _, Some plan when Context.has_dequeuable ctx ->
          let index = rt.fseq in
          rt.fseq <- index + 1;
          if P_semantics.Fault.on_dequeue plan ~index then Context.dequeue_second ctx
          else Context.dequeue ctx
        | _ -> locked rt (fun _ ctx -> Context.dequeue ctx) ctx
      in
      match entry with
      | None -> continue := false
      | Some (e, v) ->
        rt.n_dequeued <- rt.n_dequeued + 1;
        (match rt.mode with Scheduled sc -> sc.sc_left <- sc.sc_left - 1 | _ -> ());
        (match rt.meters with
        | None -> ()
        | Some m -> P_obs.Metrics.incr m.rm_dequeues);
        if tracing rt then
          emit rt
            (Trace.Dequeued
               { mid = Mid.of_int ctx.self;
                 event = event_of rt e;
                 payload = Rt_value.to_value rt.driver v });
        ctx.msg <- Some e;
        ctx.arg <- v;
        ctx.agenda <- [ Context.Handle (e, v) ])
    | _, task :: rest -> exec_task rt ctx task rest
  done

and exec_task rt (ctx : Context.t) task rest =
  match task with
  | Context.Handle (e, v) -> handle_event rt ctx e v
  | Context.Pop_frame -> (
    match ctx.frames with
    | [] -> error "machine %s #%d: call stack underflow" ctx.table.mt_name ctx.self
    | _ :: below ->
      ctx.frames <- below;
      ctx.agenda <- rest)
  | Context.Pop_return -> (
    match ctx.frames with
    | [] | [ _ ] ->
      error "machine %s #%d: return from bottom state" ctx.table.mt_name ctx.self
    | frame :: below ->
      ctx.frames <- below;
      ctx.agenda <- frame.f_cont)
  | Context.Enter target -> (
    match ctx.frames with
    | [] -> error "machine %s #%d: no frame to enter" ctx.table.mt_name ctx.self
    | frame :: _ ->
      frame.f_state <- target;
      if tracing rt then
        emit rt (entered ctx target);
      ctx.agenda <- Context.Exec (Context.state_table ctx target).st_entry :: rest)
  | Context.Exec code -> exec_code rt ctx code rest

and handle_event rt (ctx : Context.t) e v =
  match ctx.frames with
  | [] ->
    error "machine %s #%d: unhandled event %s" ctx.table.mt_name ctx.self
      (event_name rt e)
  | frame :: _ -> (
    let st = Context.state_table ctx frame.f_state in
    match st.st_steps.(e) with
    | Some target -> ctx.agenda <- [ Context.Exec st.st_exit; Context.Enter target ]
    | None -> (
      match st.st_calls.(e) with
      | Some target ->
        let amap = push_amap ctx frame.f_state frame.f_amap in
        ctx.frames <-
          { Context.f_state = target; f_amap = amap; f_cont = [] } :: ctx.frames;
        if tracing rt then
          emit rt (entered ctx target);
        ctx.agenda <- [ Context.Exec (Context.state_table ctx target).st_entry ]
      | None -> (
        let action =
          match st.st_actions.(e) with
          | Some a -> Some a
          | None -> (
            match frame.f_amap.(e) with
            | Context.HAction a -> Some a
            | Context.HDefer | Context.HNone -> None)
        in
        match action with
        | Some a -> ctx.agenda <- [ Context.Exec (snd ctx.table.mt_actions.(a)) ]
        | None ->
          (* POP1: exit, pop, re-raise in the caller *)
          ctx.agenda <-
            [ Context.Exec st.st_exit; Context.Pop_frame; Context.Handle (e, v) ])))

and exec_code rt (ctx : Context.t) (code : Tables.code) rest =
  match code with
  | Tables.CSkip -> ctx.agenda <- rest
  | Tables.CSeq (a, b) ->
    ctx.agenda <- Context.Exec a :: Context.Exec b :: rest
  | Tables.CAssign (x, e) ->
    assign ctx x (eval rt ctx e);
    ctx.agenda <- rest
  | Tables.CIf (c, t, f) ->
    ctx.agenda <- Context.Exec (if Rt_value.truth (eval rt ctx c) then t else f) :: rest
  | Tables.CWhile (c, body) ->
    if Rt_value.truth (eval rt ctx c) then
      ctx.agenda <- Context.Exec body :: Context.Exec code :: rest
    else ctx.agenda <- rest
  | Tables.CAssert (e, msg) ->
    if Rt_value.truth (eval rt ctx e) then ctx.agenda <- rest
    else error "machine %s #%d: assertion failed (%s)" ctx.table.mt_name ctx.self msg
  | Tables.CNew (x, ty, inits) -> (
    let values = List.map (fun (y, e) -> (y, eval rt ctx e)) inits in
    match rt.mode with
    | Scheduled sc ->
      (* the scheduler owns instance creation: it may place the child on
         another shard and decides when its entry statement runs *)
      assign ctx x (Rt_value.Machine (sc.sc_spawn ~creator:ctx.self ty values));
      ctx.agenda <- rest
    | Nested | Stepped _ ->
      let child = create_instance rt ~creator:(Some ctx.self) ty in
      List.iter (fun (y, v) -> assign child y v) values;
      assign ctx x (Rt_value.Machine child.Context.self);
      ctx.agenda <- rest;
      if is_stepped rt then
        (* NEW is a scheduling point; the replayed schedule decides when
           the child's entry statement runs *)
        set_yield rt
      else
        (* the fresh machine preempts its creator, as in the d=0 schedule *)
        ignore (run_if_idle rt child : bool))
  | Tables.CDelete ->
    if tracing rt then emit rt (Trace.Deleted { mid = Mid.of_int ctx.self });
    locked rt
      (fun rt (ctx : Context.t) ->
        ctx.alive <- false;
        Hashtbl.remove rt.instances ctx.self)
      ctx;
    ctx.agenda <- []
  | Tables.CSend (target, e, payload) -> (
    (* the interpreter resolves the target before touching the payload (and
       fails on a null target without evaluating it) — mirror that order so
       both layers consume [*] choices identically *)
    match eval rt ctx target with
    | Rt_value.Null ->
      error "machine %s #%d: send to null machine id" ctx.table.mt_name ctx.self
    | Rt_value.Machine dst -> (
      let v = eval rt ctx payload in
      ctx.agenda <- rest;
      match rt.mode with
      | Scheduled sc ->
        (* the scheduler routes the send (possibly cross-shard); a serving
           scheduler may shed at a bounded mailbox — machine code cannot
           react to backpressure, so the drop is the scheduler's to count *)
        let (_ : Context.backpressure) = sc.sc_send ~src:ctx.self dst e v in
        ()
      | Nested | Stepped _ -> (
        match deliver rt ~src:ctx.self dst e v with
        | Context.Accepted | Context.Queued -> ()
        | Context.Shed ->
          (* run-to-completion semantics has no shed path: a configured
             bound overflowing is a runtime error, not silent loss *)
          raise_overflow rt dst e))
    | v ->
      error "machine %s #%d: send target is %a, not a machine id" ctx.table.mt_name
        ctx.self Rt_value.pp v)
  | Tables.CRaise (e, payload) ->
    let v = eval rt ctx payload in
    (match rt.mode with Scheduled sc -> sc.sc_left <- sc.sc_left - 1 | _ -> ());
    ctx.msg <- Some e;
    ctx.arg <- v;
    ctx.agenda <- [ Context.Handle (e, v) ]
  | Tables.CLeave -> ctx.agenda <- []
  | Tables.CReturn -> (
    match Context.current_state ctx with
    | None -> error "machine %s #%d: return with empty stack" ctx.table.mt_name ctx.self
    | Some s ->
      ctx.agenda <-
        [ Context.Exec (Context.state_table ctx s).st_exit; Context.Pop_return ])
  | Tables.CCall_state target -> (
    match ctx.frames with
    | [] -> error "machine %s #%d: call with empty stack" ctx.table.mt_name ctx.self
    | frame :: _ ->
      let amap = push_amap ctx frame.f_state frame.f_amap in
      ctx.frames <-
        { Context.f_state = target; f_amap = amap; f_cont = rest } :: ctx.frames;
      if tracing rt then
        emit rt (entered ctx target);
      ctx.agenda <- [ Context.Exec (Context.state_table ctx target).st_entry ])
  | Tables.CForeign_stmt (f, args) ->
    let (_ : Rt_value.t) = call_foreign rt ctx f (List.map (eval rt ctx) args) in
    ctx.agenda <- rest

(* ------------------------------------------------------------------ *)
(* Instance management and scheduling                                  *)
(* ------------------------------------------------------------------ *)

and adopt_instance rt ~self ~creator ty : Context.t =
  let ctx =
    Context.create ~capacity:rt.default_capacity ~self ~ty ~table:rt.driver.dr_machines.(ty) ()
  in
  locked rt
    (fun rt (ctx : Context.t) ->
      if Hashtbl.mem rt.instances ctx.self then
        invalid_arg "Exec.adopt_instance: handle already registered";
      if ctx.self >= rt.next_handle then rt.next_handle <- ctx.self + 1;
      Hashtbl.replace rt.instances ctx.self ctx)
    ctx;
  (match rt.meters with
  | None -> ()
  | Some m -> P_obs.Metrics.incr m.rm_creates);
  if tracing rt then begin
    emit rt
      (Trace.Created
         { creator = Option.map Mid.of_int creator;
           created = Mid.of_int self;
           kind = Names.Machine.of_string ctx.table.mt_name });
    emit rt (entered ctx 0)
  end;
  ctx

and create_instance rt ~creator ty : Context.t =
  let self = fresh_handle rt in
  adopt_instance rt ~self ~creator ty

and fresh_handle rt =
  locked rt
    (fun rt () ->
      let handle = rt.next_handle in
      rt.next_handle <- handle + 1;
      handle)
    ()

(* Deliver an event: enqueue (under the lock in [Nested] mode); if the
   receiver is idle, claim it and run it on this thread (nested
   run-to-completion). *)
and deliver rt ~src dst e v : Context.backpressure =
  let target =
    locked rt
      (fun rt () ->
        match Hashtbl.find_opt rt.instances dst with
        | None -> None
        | Some target ->
          (* the fault point sits after target resolution, like the
             interpreter's (Config.find, then the decision) *)
          let enq =
            match send_fault rt with
            | P_semantics.Fault.Deliver -> Context.enqueue target e v
            | P_semantics.Fault.Drop ->
              (* dropped on the wire: the sender observes success *)
              Context.Enq_ok
            | P_semantics.Fault.Duplicate -> (
              (* first copy respects ⊕, the duplicate bypasses it *)
              match Context.enqueue target e v with
              | Context.Enq_overflow -> Context.Enq_overflow
              | Context.Enq_ok | Context.Enq_duplicate ->
                Context.enqueue_no_dedup target e v)
            | P_semantics.Fault.Reorder -> Context.enqueue_front target e v
          in
          (match rt.meters with
          | None -> ()
          | Some m ->
            P_obs.Metrics.incr m.rm_sends;
            P_obs.Metrics.set_max m.rm_queue_hwm
              (float_of_int (Context.inbox_length target)));
          Some (target, enq))
      ()
  in
  match target with
  | None ->
    error "send to deleted machine #%d (event %s)" dst (event_name rt e)
  | Some (_, Context.Enq_overflow) -> Context.Shed
  | Some (target, (Context.Enq_ok | Context.Enq_duplicate)) ->
    if tracing rt then emit rt (sent_item rt ~src dst e v);
    if is_stepped rt then begin
      (* SEND is a scheduling point: enqueue only, stop at the block
         boundary; the schedule decides when the receiver runs *)
      set_yield rt;
      Context.Queued
    end
    else if run_if_idle rt target then Context.Accepted
    else Context.Queued

(* Claim-and-run: set the scheduled flag if unset, then drain the machine,
   re-checking for events that raced in while we were finishing. Returns
   whether this thread claimed (and therefore ran) the machine. *)
and run_if_idle rt (ctx : Context.t) : bool =
  let claimed =
    locked rt
      (fun _ (ctx : Context.t) ->
        if ctx.scheduled || not ctx.alive then false
        else begin
          ctx.scheduled <- true;
          true
        end)
      ctx
  in
  if claimed then begin
    let rec drain () =
      run_machine rt ctx;
      let again =
        locked rt
          (fun rt (ctx : Context.t) ->
            if Context.is_runnable ctx && not (stepped_yield rt) then true
            else begin
              ctx.scheduled <- false;
              false
            end)
          ctx
      in
      if again then drain ()
    in
    drain ()
  end;
  claimed

(* ------------------------------------------------------------------ *)
(* Stepped execution (differential replay)                             *)
(* ------------------------------------------------------------------ *)

type block_result =
  | Block_progress  (** reached a scheduling point (send or [new]) *)
  | Block_blocked  (** agenda drained and nothing dequeuable *)
  | Block_terminated  (** the machine executed [delete] *)
  | Block_error of string  (** a runtime error configuration *)
  | Block_choices_exhausted
      (** a [*] was evaluated past the supplied choice list *)

(** Run one atomic block of [ctx]: continue its agenda (or dequeue if the
    agenda is empty) until a send/new scheduling point, quiescence,
    termination, or an error — the runtime twin of
    {!P_semantics.Step.run_atomic}. [choices] resolves the block's [*]
    expressions in order. Single-threaded use only: no other thread may
    drive [rt] while stepping. *)
let step_block rt (ctx : Context.t) ~(choices : bool list) : block_result =
  (match rt.mode with
  | Nested -> ()
  | Stepped _ -> invalid_arg "Exec.step_block: already stepping"
  | Scheduled _ -> invalid_arg "Exec.step_block: runtime is under a scheduler");
  if not ctx.Context.alive then
    invalid_arg "Exec.step_block: machine is deleted";
  let sp = { sp_choices = choices; sp_yield = false } in
  rt.mode <- Stepped sp;
  Fun.protect
    ~finally:(fun () -> rt.mode <- Nested)
    (fun () ->
      try
        (* block start is a fault point: the machine about to run may
           crash-restart (keeping its store), mirroring the interpreter's
           hook before the block's first task *)
        (match rt.fault_plan with
        | None -> ()
        | Some plan ->
          let index = rt.fseq in
          rt.fseq <- index + 1;
          if P_semantics.Fault.on_block_start plan ~index then
            Context.restart ctx);
        run_machine rt ctx;
        if sp.sp_yield then Block_progress
        else if not ctx.Context.alive then Block_terminated
        else Block_blocked
      with
      | Runtime_error msg -> Block_error msg
      | Rt_value.Type_error msg -> Block_error msg
      | Choice_needed -> Block_choices_exhausted)
