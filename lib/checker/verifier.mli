(** One-call verification front end: static checks, delay-bounded safety
    search, and optionally the liveness checks — the OCaml counterpart of
    the paper's "compile to Zing and explore" pipeline. *)

type report = {
  static_diagnostics : P_static.Symtab.diagnostic list;
  safety : Search.result option;  (** [None] when static checking failed *)
  liveness : Liveness.result option;
      (** [None] unless requested and the safety search was clean *)
  seed : int option;
      (** the PRNG seed when the safety search sampled ghost choices
          ([verify ?seed]); recorded so a failure is reproducible *)
  domains : int option;
      (** how many domains the safety search ran across ([verify
          ?domains]); [None] for the sequential engine *)
  faults : P_semantics.Fault.plan option;
      (** the fault-injection plan the safety search ran under ([verify
          ?faults]); [None] for a well-behaved host *)
}

type outcome =
  | Clean
      (** nothing failed, and the safety search (and the liveness graph,
          when requested) ran to completion *)
  | Failed
      (** a static diagnostic, a safety counterexample or a liveness
          violation *)
  | Inconclusive
      (** nothing failed, but the safety search or the liveness graph was
          truncated: a state budget ran out before the space was exhausted,
          so the unexplored part may hold an error or a violating cycle *)

val outcome : report -> outcome

val is_clean : report -> bool
(** [outcome r = Clean]. *)

val pp_report : report Fmt.t

val verify :
  ?delay_bound:int ->
  ?max_states:int ->
  ?liveness:bool ->
  ?liveness_max_states:int ->
  ?fingerprint:Fingerprint.mode ->
  ?store:State_store.kind ->
  ?store_capacity:int ->
  ?reduce:Reduce.t ->
  ?seed:int ->
  ?domains:int ->
  ?faults:P_semantics.Fault.plan ->
  ?instr:Search.instr ->
  P_syntax.Ast.program ->
  report
(** [verify program] runs the full pipeline with [delay_bound] (default 2)
    and a [max_states] budget (default 200000); [liveness:true] adds the
    responsiveness checks of section 3.2. [fingerprint] selects the safety
    search's state-key strategy (default [Incremental]; [Paranoid]
    cross-checks the incremental cache against full re-encoding). [store]
    picks the safety search's seen-set representation (default [Exact];
    see {!State_store}), [store_capacity] overrides the arena sizing.
    [reduce] (default {!Reduce.none}) applies sleep-set POR to the safety
    search — same verdict kind,
    never more states; the liveness pass always explores unreduced (its
    fair-cycle analysis needs the full graph). [seed]
    switches the safety search from exhaustive ghost-choice enumeration to
    seeded sampling (one drawn resolution per block) and records the seed
    in the report, so a sampled failure is reproducible. [domains] runs
    the safety search on {!Parallel.explore} across that many domains
    instead of the sequential engine — verdicts, state counts, and any
    counterexample are unchanged (see {!Parallel}); the count is recorded
    in the report. [seed] and [domains] are mutually exclusive
    ([Invalid_argument]): sampled resolution draws from one shared PRNG.
    [faults] runs the safety search under deterministic fault injection
    (see {!P_semantics.Fault}): drops, duplicates, reorders, delays, and
    crash-restarts decided by a pure function of the plan's seed and the
    per-path fault index, so verdicts and counts are reproducible and
    domain-count independent. A plan with all-zero rates is normalized to
    [None]. [faults] with [liveness] or with sleep-set POR raises
    [Invalid_argument]. [instr] is threaded to the safety search and
    (when requested) the liveness analysis; with the default
    {!Search.no_instr} the pipeline behaves exactly as before. *)
