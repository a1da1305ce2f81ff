(** Machine instance contexts: the runtime twin of the paper's
    [StateMachineContext] (section 4) — variable values, call stack, input
    queue, and a [void*]-style pointer to external memory for foreign
    functions and interface code. A context has no lock or hash table of
    its own: the owning {!Exec} runtime serializes access, and a short
    mailbox checks [⊕] by scanning. *)

module Tables = P_compile.Tables

(** External memory attached to a machine for foreign code. Extend with one
    constructor per driver, e.g.
    [type Context.ext += Led_state of { mutable on : bool }]. *)
type ext = ..

type handler = HNone | HDefer | HAction of int

(** What happened to an event offered to the runtime: ran immediately
    ([Accepted]), parked in a mailbox ([Queued]), or dropped because a
    bound was reached ([Shed]). The typed backpressure contract shared by
    {!Api}, the scheduler and the shard layer. *)
type backpressure = Accepted | Queued | Shed

(** Outcome of a single mailbox [enqueue]: [Enq_duplicate] is the
    deduplicating [⊕] absorbing an entry already present; [Enq_overflow]
    reports a full bounded mailbox (nothing was enqueued). *)
type enqueue_result = Enq_ok | Enq_duplicate | Enq_overflow

type task =
  | Exec of Tables.code
  | Handle of int * Rt_value.t  (** dynamic raise(e, v) *)
  | Pop_return
  | Pop_frame
  | Enter of int

type frame = {
  mutable f_state : int;
  f_amap : handler array;  (** indexed by event id; inherited handler map *)
  f_cont : task list;  (** caller continuation for [call] statements *)
}

(** The input FIFO: a two-list functional queue, making enqueue amortized
    O(1) (the historical list-append representation made bursty workloads
    O(n²)). A mailbox of at most {!scan_limit} entries checks the
    deduplicating [⊕] by scanning both lists; a longer one builds a
    membership table, kept until the mailbox empties. The table counts
    occurrences: a duplication fault ({!enqueue_no_dedup}) can put the
    same entry in the queue twice, and [⊕] must stay correct after the
    first copy dequeues. *)
type inbox = {
  mutable ib_front : (int * Rt_value.t) list;  (** next to dequeue first *)
  mutable ib_back : (int * Rt_value.t) list;  (** reversed: newest first *)
  mutable ib_size : int;
  mutable ib_members : (int * Rt_value.t, int) Hashtbl.t option;
      (** occurrence counts of a long mailbox *)
}

type t = {
  self : int;  (** instance handle *)
  ty : int;  (** machine type index in the driver *)
  table : Tables.machine_table;
  vars : Rt_value.t array;
  mutable msg : int option;
  mutable arg : Rt_value.t;
  mutable frames : frame list;  (** top first *)
  mutable agenda : task list;
  inbox : inbox;
  mutable alive : bool;
  mutable scheduled : bool;  (** being run (or queued to run) by some thread *)
  capacity : int;  (** mailbox bound; [max_int] = unbounded (semantics mode) *)
  mutable external_mem : ext option;
}

val create :
  ?capacity:int -> self:int -> ty:int -> table:Tables.machine_table -> unit -> t
(** [capacity] bounds the inbox ([max_int], the default, preserves the
    formal semantics' unbounded queues); raises [Invalid_argument] when
    not positive. *)

val current_state : t -> int option
val state_table : t -> int -> Tables.state_table

val is_deferred : t -> int -> bool
(** The effective deferred set in the current state (inherited plus
    declared, minus locally handled). *)

val scan_limit : int
(** The longest mailbox that checks [⊕] membership by scanning. *)

val enqueue : t -> int -> Rt_value.t -> enqueue_result
(** Append with the deduplicating [⊕] of the SEND rule, respecting the
    mailbox capacity. *)

val enqueue_no_dedup : t -> int -> Rt_value.t -> enqueue_result
(** Append bypassing [⊕] (never [Enq_duplicate]) — the second copy of a
    duplication fault; still respects the mailbox capacity. *)

val enqueue_front : t -> int -> Rt_value.t -> enqueue_result
(** Insert at the front of the FIFO — a reordering fault.
    Membership-checked like [⊕]: an entry already queued is absorbed. *)

val dequeue : t -> (int * Rt_value.t) option
(** Dequeue the first non-deferred entry, if any; deferred entries keep
    their queue positions. *)

val dequeue_second : t -> (int * Rt_value.t) option
(** Dequeue the SECOND non-deferred entry — a delay fault; falls back to
    the first when only one entry is dequeuable. *)

val inbox_length : t -> int

val inbox_list : t -> (int * Rt_value.t) list
(** Front of the FIFO first (for introspection and differential replay). *)

val has_dequeuable : t -> bool
val is_runnable : t -> bool

val restart : t -> unit
(** Crash-restart: re-enter the initial state keeping only the persistent
    store (variable values) — frames, agenda, [msg]/[arg], and the inbox
    reset to a fresh machine's. The runtime twin of
    {!P_semantics.Step.restart}. *)
