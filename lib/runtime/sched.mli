(** The cooperative scheduler: one domain multiplexing many machines over
    one {!Exec} runtime in [Scheduled] mode. Machine code calls the send,
    spawn and [*] choice functions this module installs in
    {!Exec.sched_mode}; they take effect under one of two policies:

    - [Causal]: a send to an idle machine runs the receiver to quiescence,
      nested inside the send, before the sender continues — the nested
      driver's d = 0 schedule, observably trace-identical to it.
    - [Fifo]: the serving discipline — sends only enqueue and mark ready;
      machines are activated FIFO and, when their quantum expires, return
      at a block boundary and go back on the ready queue.

    Single-domain by construction: contexts are never locked here. The
    {!Shard} layer pins one scheduler per domain and stitches them
    together through the [router]. *)

module Tables = P_compile.Tables

type policy = Causal | Fifo

(** Hooks the shard layer installs: a global handle allocator, the home
    predicate, and cross-shard send/spawn paths (which enqueue into
    another shard's transfer queue and never touch its contexts). *)
type router = {
  rt_alloc : unit -> int;
  rt_home : int -> bool;
  rt_send :
    src:int -> dst:int -> event:int -> payload:Rt_value.t -> Context.backpressure;
  rt_spawn :
    handle:int -> creator:int -> ty:int -> inits:(int * Rt_value.t) list -> unit;
}

type t

(** Scheduler-level stats; single-writer, so cross-domain reads may be
    slightly stale (exact after the owning domain has joined). *)
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

val create :
  ?policy:policy ->
  ?quantum:int ->
  ?capacity:int ->
  ?seed:int ->
  ?faults:P_semantics.Fault.plan ->
  ?router:router ->
  Tables.driver ->
  t
(** [quantum] is the per-activation dequeue budget (default 64; forced
    unbounded under [Causal]); [capacity] bounds every mailbox; [seed]
    enables ghost [*] resolution (full tables under simulation); [router]
    is installed by the shard layer. Default policy is [Fifo].

    [faults] makes this scheduler an adversarial host: sends whose target
    exists may be dropped, duplicated (bypassing [⊕] once), or reordered
    (front-of-queue insert), and machines may crash-restart at activation
    — each decision a pure function of the plan's seed and this
    scheduler's own monotone fault-point counter, so a fixed workload
    sees a fixed fault schedule. An all-zero plan is normalized to no
    injection. Per-class counts are reported in {!stats} and flushed to
    the [runtime.sched_faults] metric. *)

val exec : t -> Exec.t
(** The underlying runtime — for foreign registration, trace hooks, and
    introspection ({!Exec.find_instance} etc.). *)

val set_metrics : t -> P_obs.Metrics.t option -> unit
(** Resolve [runtime.sched_*] handles (plus the {!Exec} meters) in the
    registry; counter values reach it on {!flush_metrics}. *)

val flush_metrics : t -> unit
(** Push counter deltas since the last flush into the registry (the shard
    loop calls this at telemetry ticks and shutdown). *)

val stats : t -> stats
val ready_length : t -> int

val run_ready : t -> fuel:int -> int
(** Run up to [fuel] activations off the ready queue; returns how many
    ran (0 = quiescent). The Fifo pump; Causal queues are always empty. *)

val run : t -> unit
(** Pump until quiescent. *)

val post : t -> src:int -> int -> int -> Rt_value.t -> Context.backpressure
(** Post an event by event id ([src = -1] marks host origin). [Causal]
    runs the receiver before returning ([Accepted]); [Fifo] leaves it for
    the next pump ([Queued]), or sheds at a full mailbox. *)

val add_event : t -> int -> string -> Rt_value.t -> Context.backpressure
(** {!post} by event name. *)

val create_machine : t -> ?handle:int -> string -> int
(** Create an instance of the named machine type (with a caller-allocated
    handle under sharding); [Causal] runs its entry before returning. *)

val adopt_spawn :
  t -> handle:int -> creator:int option -> int -> (int * Rt_value.t) list -> unit
(** Materialize a machine with a pre-allocated handle and initial
    variable values, then schedule its entry — the shard layer's
    remote-spawn delivery. *)
