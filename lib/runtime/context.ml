(** Machine instance contexts: the runtime twin of the paper's
    [StateMachineContext] (section 4). Each dynamic instance carries its
    variable values, call stack, input queue, and a [void*]-style pointer
    to external memory reserved for foreign functions and interface code.
    A context has no lock of its own: the runtime that owns it serializes
    access (see {!Exec}). *)

module Tables = P_compile.Tables

(** External memory attached to a machine for foreign code — the OCaml
    rendering of the C runtime's [void *]. Extend the variant with one
    constructor per driver, e.g.
    [type Context.ext += Led_state of { mutable on : bool }]. *)
type ext = ..

type handler = HNone | HDefer | HAction of int

(** What happened to an event offered to the runtime — the typed
    backpressure contract of the serving scheduler. [Accepted] means the
    receiver was idle and ran (run-to-completion drivers) or the event was
    taken for immediate processing; [Queued] means it sits in a mailbox
    behind other work; [Shed] means a bounded mailbox (or shard ingress)
    was full and the event was dropped. *)
type backpressure = Accepted | Queued | Shed

(** Outcome of a single mailbox [enqueue]. [Enq_duplicate] is the
    deduplicating [⊕] of the SEND rule absorbing an entry already
    present — not an error and not an overflow. *)
type enqueue_result = Enq_ok | Enq_duplicate | Enq_overflow

(** The input FIFO: a two-list functional queue (amortized O(1) enqueue)
    plus membership for the deduplicating [⊕] of the SEND rule. The
    historical representation was a plain list appended with [@], which
    made every enqueue O(n) and bursty workloads O(n²). A short mailbox
    checks membership by scanning its two lists; one that grows past
    {!scan_limit} builds a table that counts occurrences, kept until the
    mailbox empties. Counts rather than presence: [⊕] keeps the queue
    duplicate-free on its own, but a duplication fault
    ({!enqueue_no_dedup}) deliberately bypasses it, and a counting table
    keeps [⊕] correct after the first copy of a duplicated entry
    dequeues. *)
type inbox = {
  mutable ib_front : (int * Rt_value.t) list;  (** next to dequeue first *)
  mutable ib_back : (int * Rt_value.t) list;  (** reversed: newest first *)
  mutable ib_size : int;
  mutable ib_members : (int * Rt_value.t, int) Hashtbl.t option;
      (** occurrence counts of a long mailbox *)
}

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

let create ?(capacity = max_int) ~self ~ty ~(table : Tables.machine_table) () : t =
  let n_events =
    match table.mt_states with
    | [||] -> 0
    | states -> Array.length states.(0).st_deferred
  in
  { self;
    ty;
    table;
    vars = Array.make (max 1 (Array.length table.mt_vars)) Rt_value.Null;
    msg = None;
    arg = Rt_value.Null;
    frames =
      [ { f_state = 0; f_amap = Array.make (max 1 n_events) HNone; f_cont = [] } ];
    agenda =
      (match table.mt_states with
      | [||] -> []
      | states -> [ Exec states.(0).st_entry ]);
    inbox = { ib_front = []; ib_back = []; ib_size = 0; ib_members = None };
    alive = true;
    scheduled = false;
    capacity = (if capacity <= 0 then invalid_arg "Context.create: capacity" else capacity);
    external_mem = None }

let current_state t = match t.frames with [] -> None | f :: _ -> Some f.f_state

let state_table t i : Tables.state_table = t.table.mt_states.(i)

(** The effective deferred set in the current state: inherited deferrals
    plus the state's declared deferred set, minus events with a transition
    or action defined here. *)
let is_deferred t event =
  match t.frames with
  | [] -> false
  | f :: _ ->
    let st = state_table t f.f_state in
    let declared = st.st_deferred.(event) in
    let inherited = f.f_amap.(event) = HDefer in
    let overridden =
      st.st_steps.(event) <> None || st.st_calls.(event) <> None
      || st.st_actions.(event) <> None
    in
    (declared || inherited) && not overridden

(** Mailboxes up to this length check [⊕] membership by scanning. *)
let scan_limit = 8

(* Is [key] queued? [Rt_value] values are plain immutable variants, so
   generic equality and hashing agree with {!Rt_value.equal}. *)
let member (ib : inbox) key =
  match ib.ib_members with
  | Some tbl -> Hashtbl.mem tbl key
  | None -> List.mem key ib.ib_front || List.mem key ib.ib_back

let count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Account for [key], already consed onto one of the lists. *)
let added (ib : inbox) key =
  ib.ib_size <- ib.ib_size + 1;
  match ib.ib_members with
  | Some tbl -> count tbl key
  | None when ib.ib_size > scan_limit ->
    let tbl = Hashtbl.create (2 * ib.ib_size) in
    List.iter (count tbl) ib.ib_front;
    List.iter (count tbl) ib.ib_back;
    ib.ib_members <- Some tbl
  | None -> ()

(* Account for [key], just taken off the front list. *)
let removed (ib : inbox) key =
  ib.ib_size <- ib.ib_size - 1;
  match ib.ib_members with
  | None -> ()
  | Some _ when ib.ib_size = 0 -> ib.ib_members <- None
  | Some tbl -> (
    match Hashtbl.find tbl key with
    | 1 -> Hashtbl.remove tbl key
    | n -> Hashtbl.replace tbl key (n - 1))

(** Append with the deduplicating [⊕] of the SEND rule, respecting the
    mailbox bound; the entry is consed onto the back list. *)
let enqueue t event payload : enqueue_result =
  let ib = t.inbox in
  let key = (event, payload) in
  if member ib key then Enq_duplicate
  else if ib.ib_size >= t.capacity then Enq_overflow
  else begin
    ib.ib_back <- key :: ib.ib_back;
    added ib key;
    Enq_ok
  end

(** Append bypassing the deduplicating [⊕] — the second copy of a
    duplication fault ({!P_semantics.Equeue.append_no_dedup}'s twin).
    Still respects the mailbox bound. *)
let enqueue_no_dedup t event payload : enqueue_result =
  let ib = t.inbox in
  let key = (event, payload) in
  if ib.ib_size >= t.capacity then Enq_overflow
  else begin
    ib.ib_back <- key :: ib.ib_back;
    added ib key;
    Enq_ok
  end

(** Insert at the FRONT of the FIFO — a reordering fault
    ({!P_semantics.Equeue.push_front}'s twin). Membership-checked like
    [⊕]: an entry already queued is absorbed. *)
let enqueue_front t event payload : enqueue_result =
  let ib = t.inbox in
  let key = (event, payload) in
  if member ib key then Enq_duplicate
  else if ib.ib_size >= t.capacity then Enq_overflow
  else begin
    ib.ib_front <- key :: ib.ib_front;
    added ib key;
    Enq_ok
  end

(* Move the back list to the front (once per element over the queue's
   lifetime), so dequeue scans a single in-order list. *)
let normalize (ib : inbox) =
  if ib.ib_back <> [] then begin
    ib.ib_front <- ib.ib_front @ List.rev ib.ib_back;
    ib.ib_back <- []
  end

(** Dequeue the first non-deferred entry, if any; deferred entries keep
    their queue positions (the DEQUEUE rule scans past them). *)
let dequeue t : (int * Rt_value.t) option =
  let ib = t.inbox in
  normalize ib;
  let rec scan skipped = function
    | [] -> None
    | ((e, _) as entry) :: rest ->
      if is_deferred t e then scan (entry :: skipped) rest
      else begin
        ib.ib_front <- List.rev_append skipped rest;
        removed ib entry;
        Some entry
      end
  in
  scan [] ib.ib_front

(** Dequeue the SECOND non-deferred entry — a delay fault
    ({!P_semantics.Equeue.dequeue_second}'s twin). Falls back to the
    first when only one entry is dequeuable. *)
let dequeue_second t : (int * Rt_value.t) option =
  let ib = t.inbox in
  normalize ib;
  let rec scan seen_first skipped = function
    | [] -> if seen_first then dequeue t else None
    | ((e, _) as entry) :: rest ->
      if is_deferred t e || not seen_first then
        scan (seen_first || not (is_deferred t e)) (entry :: skipped) rest
      else begin
        ib.ib_front <- List.rev_append skipped rest;
        removed ib entry;
        Some entry
      end
  in
  scan false [] ib.ib_front

let inbox_length t = t.inbox.ib_size

let inbox_list t = t.inbox.ib_front @ List.rev t.inbox.ib_back
(** Front of the FIFO first. *)

let has_dequeuable t =
  let not_deferred (e, _) = not (is_deferred t e) in
  List.exists not_deferred t.inbox.ib_front
  || List.exists not_deferred t.inbox.ib_back

let is_runnable t = t.alive && (t.agenda <> [] || has_dequeuable t)

(** Crash-restart: re-enter the initial state with the persistent store
    (variable values) intact — the runtime twin of
    {!P_semantics.Step.restart}. Frames, agenda, [msg]/[arg], and the
    whole inbox reset to a fresh machine's; the handle, type, capacity,
    and external memory survive. *)
let restart t : unit =
  let n_events =
    match t.table.mt_states with
    | [||] -> 0
    | states -> Array.length states.(0).st_deferred
  in
  t.msg <- None;
  t.arg <- Rt_value.Null;
  t.frames <-
    [ { f_state = 0; f_amap = Array.make (max 1 n_events) HNone; f_cont = [] } ];
  t.agenda <-
    (match t.table.mt_states with
    | [||] -> []
    | states -> [ Exec states.(0).st_entry ]);
  let ib = t.inbox in
  ib.ib_front <- [];
  ib.ib_back <- [];
  ib.ib_size <- 0;
  ib.ib_members <- None
