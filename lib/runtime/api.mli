(** The three-call runtime API of section 4, used by interface code (the
    KMDF-style skeleton in {!P_host.Skeleton}) to drive a compiled P
    driver:

    - [SMCreateMachine] → {!create_machine}
    - [SMAddEvent]      → {!add_event}
    - [SMGetContext]    → {!get_context}

    Both calls run machines to completion on the calling thread, per the
    paper's "drivers use calling threads to do all the work". Errors in the
    driver (assertion failures, unhandled events, sends to deleted
    machines) raise {!Exec.Runtime_error}. *)

type t = Exec.t

val create : P_compile.Tables.driver -> t
(** Bring up a runtime for a compiled driver. *)

val register_foreign : t -> string -> Exec.foreign_fn -> unit
(** Provide the implementation of a foreign function (the paper's
    driver-specific C files); must be registered before any machine calls
    it. *)

val set_trace_hook : t -> (P_semantics.Trace.item -> unit) option -> unit
(** Observe creations, sends, dequeues, state entries, and deletions, as
    the interpreter's {!P_semantics.Trace} items; {!P_obs.Sem_trace.hook}
    writes them to a trace sink. *)

val set_metrics : t -> P_obs.Metrics.t option -> unit
(** Count [runtime.sends], [runtime.dequeues], [runtime.creates] and track
    the [runtime.queue_len_hwm] inbox high-water mark in the given
    registry; [None] (the initial state) turns metrics off. *)

val set_mailbox_capacity : t -> int -> unit
(** Bound the mailboxes of machines created from here on; the default is
    unbounded (the formal semantics' queues). *)

val create_machine : t -> string -> int
(** Create and start an instance of the named machine type; returns its
    handle. The entry statement of its initial state has completed when
    this returns. *)

val add_event : t -> int -> string -> Rt_value.t -> unit
(** Queue an event (with payload) into a machine; if the machine is idle,
    the calling thread runs it to completion. Raises
    {!Exec.Mailbox_overflow} when the machine's bounded mailbox (see
    {!Exec.set_mailbox_capacity}) is full. *)

val try_add_event : t -> int -> string -> Rt_value.t -> Context.backpressure
(** Like {!add_event} but reports the outcome instead of raising on a full
    mailbox: [Accepted] (receiver ran on this thread), [Queued], or
    [Shed] (bounded mailbox full, event dropped). *)

val get_context : t -> int -> Context.ext option
(** The external memory attached to a machine, reserved for foreign
    functions and interface code (the C runtime's [void *]). *)

val set_context : t -> int -> Context.ext -> unit

val is_alive : t -> int -> bool
val current_state_name : t -> int -> string option
val queue_length : t -> int -> int
