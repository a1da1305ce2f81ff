(** The shared exploration core: one loop, parameterized by scheduling
    policy, budget discipline, frontier order, ghost-choice resolution, and
    error handling. {!Delay_bounded}, {!Depth_bounded}, {!Parallel},
    {!Random_walk}, {!Liveness}, and {!Coverage} are thin instantiations;
    the engine regression tests pin their (verdict, states, transitions)
    triples to the pre-refactor values.

    State identity is a {!Fingerprint} over the configuration plus the
    scheduler's [encode] extras; counterexamples are replayed from a
    compact edge table (parent, move code, ghost choices), so frontier
    nodes carry no traces. *)

(** Stack discipline on sends and creations: [Causal] pushes the receiver
    on top (it runs next); [Round_robin] appends at the bottom. *)
type discipline = Causal | Round_robin

val rotate : 'a list -> 'a list
(** Move the top of the stack to the bottom — one delay. *)

val rotate_k : 'a list -> int -> 'a list

val apply_outcome :
  ?discipline:discipline ->
  P_semantics.Mid.t list ->
  P_semantics.Step.outcome ->
  (P_semantics.Config.t * P_semantics.Mid.t list) option
(** Advance the causal stack past a non-failing outcome (default
    [Causal]); [None] when the outcome is [Failed] or
    [Need_more_choices]. *)

(** A scheduling policy: which machines may run from a state, what each
    move costs, and how moves are recorded (as an [int] code in the edge
    table) and replayed. *)
type 'sched scheduler = {
  init : P_semantics.Mid.t -> 'sched;
  moves :
    P_static.Symtab.t ->
    P_semantics.Config.t ->
    'sched ->
    budget_left:int ->
    (int * 'sched * P_semantics.Mid.t * int) list;
      (** candidate moves in deterministic order: [(code, scheduler state
          positioned at the move, machine to run, budget cost)] *)
  decode : 'sched -> int -> ('sched * P_semantics.Mid.t) option;
      (** re-position a recorded move code during replay *)
  apply :
    'sched -> P_semantics.Step.outcome ->
    (P_semantics.Config.t * 'sched) option;
      (** advance past a non-failing outcome; [None] on failure *)
  encode : 'sched -> int list;  (** scheduler part of the state key *)
}

val full_nondet : unit scheduler
(** Any enabled machine may run, in {!P_semantics.Step.enabled} order;
    each move costs 1 (so the budget is depth). *)

val stack_sched : discipline -> P_semantics.Mid.t list scheduler
(** The delaying scheduler: rotating the causal stack [k] places costs [k]
    delays; the stack is part of the state key. *)

val random_pick : (int -> int) -> unit scheduler
(** [random_pick draw]: one move — a [draw]-selected enabled machine. *)

type resolver =
  | Exhaustive  (** enumerate every ghost-choice resolution *)
  | Sampled of (unit -> bool)  (** draw one resolution per block *)

type frontier = Bfs | Dfs

type edge_dst =
  | Dst_new of int  (** first visit; the state was just given this index *)
  | Dst_seen of int  (** the seen set already held this state *)
  | Dst_failed of P_semantics.Errors.t

(** Callbacks for graph-building engines; state indices are dense, with
    the root at 0 and indices assigned in discovery order. *)
type observer = {
  on_state : int -> P_semantics.Config.t -> unit;
  on_edge :
    src:int ->
    src_config:P_semantics.Config.t ->
    by:P_semantics.Mid.t ->
    resolved:Search.resolved ->
    dst:edge_dst ->
    unit;
      (** every explored transition, including duplicates and failures *)
}

type 'sched spec = {
  scheduler : 'sched scheduler;
  bound : int;  (** the budget: delays, depth, or walk blocks *)
  truncate_on_exhaust : bool;
      (** pop-time check: a node with [spent >= bound] marks the stats
          truncated instead of expanding; when false the budget only
          limits [moves] *)
  frontier : frontier;
  resolver : resolver;
  track_seen : bool;  (** false = no fingerprints, no dedup *)
  dedup : bool;  (** the ⊕ queue append, forwarded to [run_atomic] *)
  stop_on_error : bool;
      (** raise at the first failure (with a replayed trace) vs record the
          edge and keep exploring *)
  max_states : int;
  max_depth : int;
  fp_mode : Fingerprint.mode;
  store : State_store.kind;
      (** seen-set representation: [Exact] (default, ground truth) or
          [Compact] (off-heap fingerprint arena) *)
  store_capacity : int option;
      (** compact arena slot override; [None] sizes from [max_states] *)
  reduce : Reduce.t;
      (** state-space reduction: sleep-set POR over the scheduler's choice
          points (default {!Reduce.none}). Reduced runs reach the same verdict
          kind with never more states; the sleep set is part of the state
          key, so expansion stays a pure function of the key and
          {!run_parallel}'s determinism contract is preserved. *)
  faults : P_semantics.Fault.plan option;
      (** deterministic fault injection, forwarded to [run_atomic];
          [None] (the default) reproduces the fault-free engine byte for
          byte. Incompatible with sleep-set POR. *)
}

val spec :
  ?bound:int ->
  ?truncate_on_exhaust:bool ->
  ?frontier:frontier ->
  ?resolver:resolver ->
  ?track_seen:bool ->
  ?dedup:bool ->
  ?stop_on_error:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?fp_mode:Fingerprint.mode ->
  ?store:State_store.kind ->
  ?store_capacity:int ->
  ?reduce:Reduce.t ->
  ?faults:P_semantics.Fault.plan ->
  'sched scheduler ->
  'sched spec
(** Spec builder with the common defaults: unbounded budget, BFS,
    exhaustive choices, seen-set on, dedup on, stop at the first error,
    [max_states] 1,000,000, incremental fingerprints, exact store.

    A [faults] plan with all-zero rates is normalized to [None].
    Combining an active plan with sleep-set POR raises
    [Invalid_argument]: fault decisions are indexed by the order blocks
    execute in, so commuting two blocks changes which faults fire and
    the independence argument breaks.

    The compact store refuses (at run time, [Invalid_argument]) specs
    whose [bound] exceeds {!State_store.max_exact_spent} — its slot word
    keeps 15 bits of budget. A compact run keys states by a 63-bit
    {!Fingerprint.digest_int} and merges distinct states only on a 47-bit
    tag collision at the same slot (expected pairs n²/2⁴⁸, reported as the
    summary's omission bound). *)

val run :
  ?instr:Search.instr ->
  ?observer:observer ->
  ?span_args:(string * P_obs.Json.t) list ->
  engine:string ->
  'sched spec ->
  P_static.Symtab.t ->
  Search.result
(** Run a spec to completion on the current domain. Deterministic for a
    fixed spec. *)

val run_parallel :
  ?instr:Search.instr ->
  ?span_args:(string * P_obs.Json.t) list ->
  engine:string ->
  domains:int ->
  'sched spec ->
  P_static.Symtab.t ->
  Search.result
(** Work-stealing parallel search over the same spec: [domains] workers
    each own a Chase–Lev deque ({!Ws_deque}) and steal from each other
    when idle, sharing one {!State_store} — the exact store arbitrates
    claims behind mutex-guarded shards keyed by the digest's first byte,
    the compact store with lock-free CAS on its off-heap slot arena
    (min-spent merge applied per claim either way).

    The search is stratified by budget spent: zero-cost successors stay in
    the current stratum, positive-cost successors wait behind a barrier
    until their stratum starts — so every state is expanded exactly once,
    at its minimal spent, and the (verdict, states, transitions) triple is
    independent of [domains] and of steal order. The verdict and state
    count agree exactly with {!run}; the transition count is at most
    {!run}'s (the sequential loop may re-expand a state it first reached
    with a higher spent, which stratification never does). [stats.max_depth]
    reports the depth of each state's claiming arrival, which may vary
    with [domains] when several paths of equal spent reach a state.

    On the first failing edge the counterexample is re-derived by the
    sequential {!run} on the same spec, so error results — verdict,
    counterexample, stats — are byte-identical to the sequential engine's
    for every [domains] (the deterministic lowest-state-index tiebreak,
    not arrival order).

    [max_states] is checked at claim time against a shared atomic; a
    truncated run may overshoot slightly and its counts may vary with
    [domains]. With [instr] metrics on, workers count [checker.expansions],
    [checker.steals], [checker.steal_attempts], [checker.steal_retries]
    (lost steal-CAS races), [checker.shard_contention] (exact store:
    blocked shard-lock acquisitions), and [checker.store_cas_retries]
    (compact store: lost slot-CAS races) into their own per-domain
    registry shards. With an [instr] profiler on, each worker records
    expand / steal / barrier_wait spans onto its own lane — plus
    shard_lock spans under the exact store; the compact store has no
    locks to block on, so a compact profile shows no shard_lock phase at
    all — and worker 0 polls the runtime's GC events from its tick point.
    Requires [spec.frontier = Bfs]; observers are not supported;
    [spec.track_seen = false] falls back to the sequential {!run}. *)
