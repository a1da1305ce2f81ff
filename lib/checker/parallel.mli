(** Multicore state-space exploration: {!Engine.run_parallel} over the
    delay-bounded spec — a work-stealing search on OCaml 5 domains, with
    per-worker Chase–Lev deques and a sharded seen set (the paper's case
    study mentions "using multicores to scale the state exploration").

    Deterministic across [domains]: the verdict and the (states,
    transitions) pair are independent of the domain count (the test suite
    checks this at domains 1/2/4/8); verdicts and state counts also agree
    exactly with {!Delay_bounded.explore} on the same bounds, and a
    counterexample is always the sequential engine's. Only wall-clock time
    changes with [domains], and only on machines with more than one
    core. *)

(** Why a requested domain count was refused. [recommended] is what
    [Domain.recommended_domain_count] reported (the core count);
    [hard_limit] is the OCaml runtime's cap on concurrent domains. *)
type domains_error = { requested : int; recommended : int; hard_limit : int }

exception Invalid_domains of domains_error
(** Raised by {!explore} (and {!Random_walk.run_portfolio}) instead of the
    bare [Failure] the OCaml runtime would raise on an impossible spawn. *)

val pp_domains_error : domains_error Fmt.t

val validate_domains :
  ?hard:bool -> ?recommended:int -> int -> (int, domains_error) result
(** [validate_domains n] checks a requested domain count. With the default
    [hard:false] it also errors when [n] exceeds [recommended] (default
    [Domain.recommended_domain_count ()]) — the [pc] CLI reports that case
    as a warning on [--domains]/[--portfolio]. With [hard:true] only the
    impossible counts are errors ([n < 1] or beyond the runtime's hard
    limit, where a bare [Failure] used to escape) — the check the library
    and the CLI enforce, so tests and benchmarks may still deliberately
    oversubscribe a small machine. *)

val explore :
  ?max_states:int ->
  ?domains:int ->
  ?fingerprint:Fingerprint.mode ->
  ?store:State_store.kind ->
  ?store_capacity:int ->
  ?reduce:Reduce.t ->
  ?faults:P_semantics.Fault.plan ->
  ?instr:Search.instr ->
  delay_bound:int ->
  P_static.Symtab.t ->
  Search.result
(** [explore ~delay_bound tab] across [domains] workers (default 4).
    Raises {!Invalid_domains} when [domains] is impossible ([< 1] or past
    the runtime's hard limit). [max_states]
    is checked at claim time; a truncated run may overshoot slightly and
    its counts may vary with [domains] (non-truncated runs are exactly
    deterministic). [fingerprint] selects the state-key strategy (default
    [Incremental]); each worker keeps its own per-machine digest cache for
    the whole run. [store] picks the seen-set representation (default
    [Exact]); with [Compact] the workers claim states by lock-free CAS on
    an off-heap arena — no shard mutexes, no [shard_lock] profile phase —
    while keeping the same min-spent merge rule and the same
    domain-count-independent triple. [reduce] (default {!Reduce.none})
    applies the same sleep-set POR as the sequential engine; because the
    sleep set is part of the state key, reduced runs keep the full
    determinism contract, and a counterexample is still re-derived
    sequentially under the same reduction.

    With [instr] metrics on, workers additionally count
    [checker.expansions], [checker.steals], [checker.steal_attempts],
    [checker.steal_retries], and [checker.shard_contention] (labelled
    [engine=parallel]) from inside their domains — each into its own
    registry shard, so instrumentation adds no cross-domain contention;
    the merged [checker.expansions] total equals this engine's transition
    count on clean programs. With an [instr] profiler and telemetry on,
    workers record per-domain expand / steal / barrier_wait / shard_lock
    spans and worker 0 drives the states/s sampler (see
    {!P_obs.Profile} and {!P_obs.Telemetry}). *)
