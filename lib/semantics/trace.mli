(** Execution traces: the observable happenings of a run, used for
    counterexample reporting, the liveness predicates of section 3.2
    ([enq], [deq], [sched]), coverage attribution, and the runtime
    equivalence tests. The compiled runtime's trace hook emits the same
    items (creations, sends, dequeues, state entries, deletions), so the
    two engines' runs compare structurally. *)

open P_syntax

type item =
  | Created of { creator : Mid.t option; created : Mid.t; kind : Names.Machine.t }
  | Sent of { src : Mid.t; dst : Mid.t; event : Names.Event.t; payload : Value.t }
  | Dequeued of { mid : Mid.t; event : Names.Event.t; payload : Value.t }
  | Raised of { mid : Mid.t; event : Names.Event.t }
      (** one per examination of a dynamic raise, including re-raises while
          unhandled events pop through the call stack *)
  | Entered of { mid : Mid.t; state : Names.State.t }
  | Popped of { mid : Mid.t; state : Names.State.t option }
      (** a frame was popped; [state] is the new top of the call stack *)
  | Deleted of { mid : Mid.t }
  | Faulted of { mid : Mid.t; fault : string }
      (** an injected fault fired at this machine; [fault] names the class.
          Not observable: fault injection must not perturb the
          scheduler-equivalence comparisons. *)

val pp_item : item Fmt.t

type t = item list
(** Chronological order. *)

val pp : t Fmt.t

val observable : ?only:Mid.Set.t -> t -> item list
(** The externally observable communication actions (creates, sends,
    dequeues, deletions), optionally restricted to a set of machines. *)
