(** Delay-bounded systematic testing with the paper's causal delaying
    scheduler (section 5).

    The scheduler keeps a stack of machine identifiers and runs the top
    machine for one atomic block; created machines and send receivers are
    pushed on top (so the default schedule follows the causal order of
    events), and each *delay* — moving the top to the bottom — costs one
    unit from the budget [delay_bound]. Ghost [*] choices are enumerated
    exhaustively; the bound only limits scheduling nondeterminism. The
    search is an {!Engine.run} breadth-first over (configuration, stack)
    scheduler states, so reported counterexamples are shortest in atomic
    blocks. *)

(** Stack discipline on sends and creations: [Causal] pushes the receiver on
    top (the paper's scheduler); [Round_robin] appends it at the bottom —
    the generic delaying scheduler of Emmi et al., kept as an ablation
    baseline. (Re-exported from {!Engine}.) *)
type discipline = Engine.discipline = Causal | Round_robin

(** {2 Scheduler-stack primitives}

    Aliases of the {!Engine} stack discipline, kept for the replay tools
    and the d=0 ≡ runtime equivalence argument. *)

val rotate_k : P_semantics.Mid.t list -> int -> P_semantics.Mid.t list
(** Apply the delay operation [k] times: each moves the top to the bottom. *)

val apply_outcome :
  ?discipline:discipline ->
  P_semantics.Mid.t list ->
  P_semantics.Step.outcome ->
  (P_semantics.Config.t * P_semantics.Mid.t list) option
(** Update the scheduler stack after one atomic block; [None] for failures. *)

val explore :
  ?max_states:int ->
  ?max_depth:int ->
  ?discipline:discipline ->
  ?dedup:bool ->
  ?fingerprint:Fingerprint.mode ->
  ?resolver:Engine.resolver ->
  ?store:State_store.kind ->
  ?store_capacity:int ->
  ?reduce:Reduce.t ->
  ?faults:P_semantics.Fault.plan ->
  ?instr:Search.instr ->
  delay_bound:int ->
  P_static.Symtab.t ->
  Search.result
(** [explore ~delay_bound tab] checks all schedules of at most [delay_bound]
    delays for the error configurations of Figure 6, returning either the
    first (shortest) counterexample with its replayed trace, or [No_error]
    with exploration statistics. [max_states] (default 1e6) and [max_depth]
    truncate the search, which is then flagged in the stats.
    [dedup:false] disables the [⊕] queue append (ablation only).
    [fingerprint] selects the state-key strategy (default
    [Incremental]; see {!Fingerprint.mode}) — the verdict and counts are
    identical in every mode. [store] picks the seen-set representation
    (default [Exact]; [Compact] trades ground truth for an off-heap arena
    — see {!State_store} — and reports its omission bound in
    [stats.store]). [resolver] (default [Exhaustive]) switches
    ghost [*] resolution to sampling — one drawn outcome per block instead
    of all of them — for seeded reproducible runs ([pc verify --seed]).
    [reduce] (default {!Reduce.none}) enables sleep-set partial-order
    reduction — same verdict kind, never
    more states; slept moves are counted in [stats.pruned]. [instr]
    reports metrics, a lifecycle span, and progress heartbeats while the
    search runs; the result is identical with or without it. *)
