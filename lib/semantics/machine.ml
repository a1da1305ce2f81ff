(** Configuration of a single machine instance.

    The paper's machine configuration is [(σ, s, S, q)]: a call stack [σ] of
    (state, inherited-handler map) pairs, a variable store [s], the statement
    [S] remaining to execute, and the input buffer [q]. We represent the
    remaining statement as an explicit agenda of tasks; besides plain
    statements, the agenda carries the dynamic forms of the semantics —
    [raise(e,v)] (task [Handle]) and [return'] (task [Pop_return]) — as well
    as the administrative steps that Figure 5 performs inside a single rule
    (entering a step-transition target, popping a frame during unhandled
    event propagation).

    Frames additionally carry a saved continuation to support the [call n']
    *statement* (section 3, "Other features"): the caller's remaining agenda
    is frozen on the pushed frame and resumed when the callee returns. For
    call *transitions* the continuation is empty. When a pushed state is
    popped because of an event it does not handle (POP1), the saved
    continuation is discarded: the event aborts the subroutine and must be
    handled by the caller state. *)

open P_syntax

(** The value of the inherited handler map [a] at one event: [Defer] is the
    paper's [T], [Do a] an inherited action binding; absence from the map is
    [⊥]. *)
type handler = Defer | Do of Names.Action.t

let handler_equal a b =
  match (a, b) with
  | Defer, Defer -> true
  | Do x, Do y -> Names.Action.equal x y
  | (Defer | Do _), _ -> false

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
  frames : frame list;  (** top of the call stack first; never empty while live *)
  store : Value.t Names.Var.Map.t;
  msg : Names.Event.t option;  (** the special variable [msg] *)
  arg : Value.t;  (** the special variable [arg] *)
  agenda : task list;
  queue : Equeue.t;
  mutable digest_memo : string;
      (** scratch slot owned by [P_checker.Fingerprint]: the canonical
          per-machine digest of this exact value, [""] when not yet
          computed. Not part of the machine's semantic state: ignored by
          {!compare}, reset by [Config.update] whenever a (possibly
          rebuilt) machine is bound into a configuration, so a non-empty
          memo is only ever carried by a physically shared, untouched
          machine. *)
}

let top_frame t =
  match t.frames with
  | [] -> None
  | f :: _ -> Some f

let current_state t = Option.map (fun f -> f.fr_state) (top_frame t)

(** Fresh machine configuration entering the initial state of its kind.
    [store] must already map every declared variable (uninitialized ones to
    [⊥]); the entry statement of the initial state is placed on the agenda. *)
let create ~name ~self ~initial ~entry ~store =
  { name;
    self;
    frames = [ { fr_state = initial; fr_amap = Names.Event.Map.empty; fr_cont = [] } ];
    store;
    msg = None;
    arg = Value.Null;
    agenda = [ Exec entry ];
    queue = Equeue.empty;
    digest_memo = "" }

(* ------------------------------------------------------------------ *)
(* Effective deferred set and handler resolution (rule DEQUEUE).       *)
(* ------------------------------------------------------------------ *)

(** [effective_deferred mi t]: the set [d' = (d ∪ Deferred(m,n)) − t] of the
    DEQUEUE rule — inherited deferrals plus the current state's declared
    deferred set, minus events with a transition or action defined here
    (a defined transition overrides a deferral). *)
let effective_deferred (mi : P_static.Symtab.machine_info) t =
  match top_frame t with
  | None -> Names.Event.Set.empty
  | Some fr ->
    let n = fr.fr_state in
    let inherited =
      Names.Event.Map.fold
        (fun e h acc -> match h with Defer -> Names.Event.Set.add e acc | Do _ -> acc)
        fr.fr_amap Names.Event.Set.empty
    in
    let declared = P_static.Symtab.deferred_set mi n in
    let overridden e =
      P_static.Symtab.trans_defined mi n e
      || P_static.Symtab.bound_action mi n e <> None
    in
    Names.Event.Set.filter
      (fun e -> not (overridden e))
      (Names.Event.Set.union inherited declared)

(** A machine with an empty agenda is waiting for an event; it is enabled
    iff its queue holds a dequeuable (non-deferred) event. *)
let can_dequeue mi t =
  Equeue.has_dequeuable ~deferred:(effective_deferred mi t) t.queue

let is_enabled mi t = t.agenda <> [] || can_dequeue mi t

(* ------------------------------------------------------------------ *)
(* Structural comparison (used for state hashing by the checker).      *)
(* ------------------------------------------------------------------ *)

let compare_task (a : task) (b : task) = Stdlib.compare a b

let compare_frame a b =
  match Names.State.compare a.fr_state b.fr_state with
  | 0 -> (
    match
      Names.Event.Map.compare
        (fun x y -> Stdlib.compare x y)
        a.fr_amap b.fr_amap
    with
    | 0 -> List.compare compare_task a.fr_cont b.fr_cont
    | c -> c)
  | c -> c

let compare a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  Names.Machine.compare a.name b.name <?> fun () ->
  Mid.compare a.self b.self <?> fun () ->
  List.compare compare_frame a.frames b.frames <?> fun () ->
  Names.Var.Map.compare Value.compare a.store b.store <?> fun () ->
  Option.compare Names.Event.compare a.msg b.msg <?> fun () ->
  Value.compare a.arg b.arg <?> fun () ->
  List.compare compare_task a.agenda b.agenda <?> fun () -> Equeue.compare a.queue b.queue

let equal a b = compare a b = 0

let pp ppf t =
  Fmt.pf ppf "@[<v 2>%a %a in %a@ queue=%a@ agenda=%d task(s), stack depth %d@]"
    Names.Machine.pp t.name Mid.pp t.self
    Fmt.(option ~none:(any "<dead>") Names.State.pp)
    (current_state t) Equeue.pp t.queue (List.length t.agenda) (List.length t.frames)
