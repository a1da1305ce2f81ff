(** Configuration of a single machine instance: the paper's [(σ, s, S, q)] —
    call stack with inherited handler maps, variable store, remaining
    statement (as an explicit task agenda), and input queue. Frames carry a
    saved continuation for the [call n'] statement; when a pushed state is
    popped by an unhandled event (POP1) the continuation is discarded. *)

open P_syntax

(** The inherited handler map [a] at one event: [Defer] is the paper's [T],
    [Do a] an inherited action binding; absence from the map is [⊥]. *)
type handler = Defer | Do of Names.Action.t

val handler_equal : handler -> handler -> bool

type task =
  | Exec of Ast.stmt  (** execute a statement *)
  | Handle of Names.Event.t * Value.t  (** the dynamic [raise(e, v)] *)
  | Pop_return  (** the dynamic [return']: pop, resume saved continuation *)
  | Pop_frame  (** pop during unhandled-event propagation (exit already run) *)
  | Enter of Names.State.t  (** finish a step transition: swap state, run entry *)

type frame = {
  fr_state : Names.State.t;
  fr_amap : handler Names.Event.Map.t;
  fr_cont : task list;  (** caller agenda resumed when this frame pops via return *)
}

type t = {
  name : Names.Machine.t;
  self : Mid.t;
  frames : frame list;  (** top of the call stack first *)
  store : Value.t Names.Var.Map.t;
  msg : Names.Event.t option;  (** the special variable [msg] *)
  arg : Value.t;  (** the special variable [arg] *)
  agenda : task list;
  queue : Equeue.t;
  mutable digest_memo : string;
      (** scratch slot owned by [P_checker.Fingerprint]: the canonical
          per-machine digest of this exact value, [""] when not yet
          computed. Not semantic state — ignored by {!compare} and reset
          by [Config.update] on every (re)binding, so a non-empty memo is
          only ever carried by a physically shared, untouched machine. *)
}

val create :
  name:Names.Machine.t ->
  self:Mid.t ->
  initial:Names.State.t ->
  entry:Ast.stmt ->
  store:Value.t Names.Var.Map.t ->
  t
(** Fresh configuration entering the initial state; the entry statement is
    placed on the agenda. *)

val top_frame : t -> frame option
val current_state : t -> Names.State.t option

val effective_deferred : P_static.Symtab.machine_info -> t -> Names.Event.Set.t
(** The DEQUEUE rule's set [d' = (d ∪ Deferred(m,n)) − t]: inherited plus
    declared deferrals, minus events with a transition or action here. *)

val can_dequeue : P_static.Symtab.machine_info -> t -> bool

val is_enabled : P_static.Symtab.machine_info -> t -> bool
(** [en(m)]: a nonempty agenda or a dequeuable event. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
