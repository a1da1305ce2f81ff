(** The execution engine of the P runtime: an independent, mutable,
    table-driven implementation of the operational semantics structured
    like the C runtime of section 4. Run-to-completion: a send to an idle
    machine runs the receiver nested on the same thread (exactly the d = 0
    causal schedule); a send to a busy machine only enqueues. In [Nested]
    mode the runtime lock protects instance bookkeeping and inboxes but is
    never held while machine code runs, so host threads drive disjoint
    machines in parallel; [Stepped] and [Scheduled] runtimes belong to one
    thread and take no lock. Most callers use the {!Api} wrapper. *)

module Tables = P_compile.Tables

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format and raise {!Runtime_error}. *)

type foreign_fn = Context.t -> Rt_value.t list -> Rt_value.t

(** Stepped (differential-replay) mode: with this set, a send only
    enqueues, [new] only creates, and either raises [sp_yield] so the
    machine loop stops at the atomic-block boundary. [sp_choices] holds the
    block's recorded ghost [*] resolutions. Managed by {!step_block}. *)
type stepped = {
  mutable sp_choices : bool list;
  mutable sp_yield : bool;
}

exception Choice_needed
(** A [*] was evaluated past the end of [sp_choices]. *)

(** Scheduled mode: machine code calls the send, spawn and [*] choice
    functions a {!Sched} installed, so one domain multiplexes many machines
    without per-machine threads. [sc_left] is the running activation's
    remaining dequeue budget; at zero the machine loop returns at its next
    block boundary (before a dequeue or a raised event) with
    [sc_preempted] set, and the scheduler re-queues the machine. *)
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
(** A bounded mailbox rejected an event in a mode with no shed path. *)

(** Metric handles resolved once by {!set_metrics}: [runtime.sends],
    [runtime.dequeues], [runtime.creates] counters and the
    [runtime.queue_len_hwm] inbox high-water gauge. *)
type rt_meters = {
  rm_sends : P_obs.Metrics.counter;
  rm_dequeues : P_obs.Metrics.counter;
  rm_creates : P_obs.Metrics.counter;
  rm_queue_hwm : P_obs.Metrics.gauge;
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
  mutable trace_hook : (P_semantics.Trace.item -> unit) option;
  mutable meters : rt_meters option;
  mutable mode : mode;
      (** [Stepped _] only inside {!step_block}; [Scheduled _] only under a
          {!Sched} *)
  mutable default_capacity : int;
      (** mailbox capacity for instances created from here on *)
  mutable n_dequeued : int;  (** events processed, all modes *)
  mutable fault_plan : P_semantics.Fault.plan option;
      (** deterministic fault injection for stepped (differential) replay;
          install via {!set_fault_plan} *)
  mutable fseq : int;  (** fault points consumed so far (monotone) *)
}

val create : Tables.driver -> t

val set_mailbox_capacity : t -> int -> unit
(** Bound the mailboxes of instances created from here on (existing
    instances keep their capacity). Raises [Invalid_argument] when not
    positive; the default is [max_int] (the semantics' unbounded queues). *)

val scheduled_mode : t -> sched_mode -> unit
(** Switch the runtime into [Scheduled] mode under the given scheduler
    hooks; raises [Invalid_argument] unless [sc_quantum] is positive. Only
    a {!Sched} should call this. *)

val events_dequeued : t -> int
(** Events processed since [create], any mode — a cheap stat read. *)

val set_fault_plan : t -> P_semantics.Fault.plan option -> unit
(** Install (or clear) the fault plan {!step_block}-driven replay runs
    under, and reset the fault-point counter. An all-zero plan is
    normalized to [None]. Stepped execution then consumes fault points at
    exactly the interpreter's hooks — block start (crash-restart keeping
    the store), send (drop / duplicate / reorder after target
    resolution), and dequeue when something is dequeuable (delay) — so a
    schedule replayed through both layers sees identical faults. Faults
    are inert outside stepped mode. *)

(** Point the runtime at a metrics registry; [None] (the initial state)
    turns metrics off and makes every instrumented point a cheap
    option-match. *)
val set_metrics : t -> P_obs.Metrics.t option -> unit
val register_foreign : t -> string -> foreign_fn -> unit
val find_instance : t -> int -> Context.t option

val emit : t -> P_semantics.Trace.item -> unit
(** Feed the trace hook, if set (the scheduler emits [Sent] items so the
    scheduled driver's observable trace matches the nested driver's).
    Callers build the item only when a hook is installed. *)

val sent_item : t -> src:int -> int -> int -> Rt_value.t -> P_semantics.Trace.item
(** [sent_item rt ~src dst event payload]: the [Sent] item of one send,
    names and payload resolved through the driver ({!Rt_value.to_value}). *)

val event_name : t -> int -> string

val create_instance : t -> creator:int option -> int -> Context.t
(** Allocate and register an instance of machine type [ty] (by index); the
    entry statement is on its agenda but has not run. *)

val adopt_instance : t -> self:int -> creator:int option -> int -> Context.t
(** Like {!create_instance} with an externally-allocated handle — the
    shard layer assigns handles from a global counter so a machine's home
    shard is a pure function of its id. Raises [Invalid_argument] if the
    handle is already registered. *)

val fresh_handle : t -> int
(** Allocate the next instance handle without creating an instance. *)

val deliver : t -> src:int -> int -> int -> Rt_value.t -> Context.backpressure
(** [deliver rt ~src dst event payload]: enqueue with [⊕]; if [dst] is
    idle, claim it and run it to completion on this thread ([Accepted]),
    otherwise leave it queued ([Queued]). [Shed] reports a full bounded
    mailbox (nothing enqueued, receiver not run). *)

val run_if_idle : t -> Context.t -> bool
(** Claim-and-drain: run the machine if no other thread holds it,
    re-checking for events that race in while finishing. Returns whether
    this thread claimed (and ran) the machine. *)

val raise_overflow : t -> int -> int -> 'a
(** Raise {!Mailbox_overflow} for a shed delivery of event [e] to [dst]
    (looks up the target's capacity for the report). *)

val run_machine : t -> Context.t -> unit
(** One drain pass (no claim). In [Scheduled] mode it also returns at a
    block boundary once the quantum is spent, with [sc_preempted] set. *)

val eval : t -> Context.t -> Tables.cexpr -> Rt_value.t
(** Evaluate a table expression in a machine context; exposed so
    differential replay can apply {!Tables.driver.dr_main_init}. *)

val assign : Context.t -> int -> Rt_value.t -> unit
(** Store into a machine variable with the byte-narrowing coercion the
    generated code applies. *)

(** Outcome of one stepped atomic block, mirroring
    {!P_semantics.Step.outcome}. *)
type block_result =
  | Block_progress  (** reached a scheduling point (send or [new]) *)
  | Block_blocked  (** agenda drained and nothing dequeuable *)
  | Block_terminated  (** the machine executed [delete] *)
  | Block_error of string  (** a runtime error configuration *)
  | Block_choices_exhausted
      (** a [*] was evaluated past the supplied choice list *)

val step_block : t -> Context.t -> choices:bool list -> block_result
(** Run one atomic block of the given machine — continue its agenda (or
    dequeue) until a send/new scheduling point, quiescence, termination or
    an error — resolving ghost [*] expressions from [choices] in order.
    The runtime twin of {!P_semantics.Step.run_atomic}, for driving a
    checker schedule through the compiled tables. Single-threaded use
    only. *)
