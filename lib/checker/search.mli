(** Shared infrastructure of the systematic-testing engines: ghost-choice
    enumeration, exploration statistics, and verdicts. *)

type resolved = {
  choices : bool list;
  outcome : P_semantics.Step.outcome;  (** never [Need_more_choices] *)
  items : P_semantics.Trace.item list;
}

val default_enumeration_budget : int
(** Default cap on the number of [run_atomic] calls spent enumerating one
    block's [*] resolutions (256 — room for 7 independent choices per
    block, far beyond any realistic program). *)

val resolutions :
  ?fuel:int ->
  ?dedup:bool ->
  ?faults:P_semantics.Fault.plan ->
  ?budget:int ->
  ?on_overflow:(unit -> unit) ->
  P_static.Symtab.t ->
  P_semantics.Config.t ->
  P_semantics.Mid.t ->
  resolved list
(** Every resolution of the ghost [*] choices hit while running one atomic
    block of the machine, in deterministic (false-first) order.

    A block that keeps demanding choices — a cycle of private operations
    that consumes a [*] every lap, which the in-block livelock detector
    cannot see because each lap runs under a different choice prefix —
    would make the depth-first enumeration diverge. [budget] bounds the
    [run_atomic] calls one enumeration may spend; on exhaustion the
    remaining branches are dropped and [on_overflow] fires once, so the
    caller can flag the run as truncated, exactly like a state-budget
    cut. *)

type stats = {
  mutable states : int;  (** distinct scheduler states visited *)
  mutable transitions : int;  (** atomic blocks executed *)
  mutable pruned : int;
      (** enabled moves suppressed by sleep-set reduction ({!Reduce});
          0 with reduction off *)
  mutable max_depth : int;
  mutable truncated : bool;  (** a bound cut the exploration short *)
  mutable faults : int;
      (** injected faults that fired (drop/dup/reorder/delay/crash trace
          items observed); 0 with fault injection off *)
  mutable elapsed_s : float;
  mutable store : State_store.summary option;
      (** the seen set's end-of-run summary (kind, footprint, occupancy,
          omission bound); [None] for engines without a seen set *)
}

val new_stats : unit -> stats

val pp_stats : stats Fmt.t
(** Historical one-line format; a non-exact store appends its footprint
    and (when positive) expected-omission bound. *)

(** {2 Instrumentation}

    Engines accept an {!instr} describing where to report: a metrics
    registry (counted into per-domain shards — see {!P_obs.Metrics}), a
    structured trace sink for lifecycle spans, a phase profiler, and a
    telemetry sampler (the CLI's [--progress] heartbeats). {!no_instr}, the default, makes every instrumented point a no-op;
    results are identical either way. *)

type instr = {
  metrics : P_obs.Metrics.t option;
  sink : P_obs.Sink.t;
  profile : P_obs.Profile.t;
      (** per-domain phase profiler (expand / steal / barrier_wait /
          shard_lock / gc spans); {!P_obs.Profile.null} by default. The
          caller owns its lifecycle: start its GC cursor before the run,
          flush it to a sink after. *)
  telemetry : P_obs.Telemetry.t;
      (** sampling ticker for the states/s time series; engines install a
          probe over their live counters and poke it from tick points *)
}

val no_instr : instr

val instr :
  ?metrics:P_obs.Metrics.t ->
  ?sink:P_obs.Sink.t ->
  ?profile:P_obs.Profile.t ->
  ?telemetry:P_obs.Telemetry.t ->
  unit ->
  instr

(** Pre-resolved metric handles for one engine run. Metric names:
    [checker.states], [checker.transitions], [checker.dedup_hits],
    [checker.frontier_depth] (gauge, high-water), [checker.queue_len_hwm]
    (gauge, high-water), [checker.fp_requests], [checker.fp_cache_hits],
    [checker.fp_cache_misses],
    and [checker.fp_collisions] (fingerprint cache totals, added at the end
    of a run) — each labelled with [engine=<name>]. *)
type meters = {
  m_states : P_obs.Metrics.counter;
  m_transitions : P_obs.Metrics.counter;
  m_dedup_hits : P_obs.Metrics.counter;
  m_frontier : P_obs.Metrics.gauge;
  m_queue_hwm : P_obs.Metrics.gauge;
  m_fp_requests : P_obs.Metrics.counter;
  m_fp_hits : P_obs.Metrics.counter;
  m_fp_misses : P_obs.Metrics.counter;
  m_fp_collisions : P_obs.Metrics.counter;
}

val meters : engine:string -> instr -> meters option
val queue_hwm_of_config : P_semantics.Config.t -> float

type ticker

val ticker : instr -> ticker
val tick : ticker -> unit

val emit_run_span :
  instr ->
  engine:string ->
  t0_us:float ->
  stats:stats ->
  (string * P_obs.Json.t) list ->
  unit

type counterexample = {
  error : P_semantics.Errors.t;
  trace : P_semantics.Trace.t;
  depth : int;  (** atomic blocks from the initial configuration *)
  schedule : (P_semantics.Mid.t * bool list) list;
      (** per atomic block: the machine that ran and the ghost [*]
          resolutions it consumed, from the initial configuration up to
          and including the failing block; scheduler-independent and
          replayable through {!P_semantics.Step.run_atomic} (see
          {!Replay} and {!Trace_file}) *)
}

type verdict = No_error | Error_found of counterexample

type result = { verdict : verdict; stats : stats }

val pp_verdict : verdict Fmt.t
val pp_result : result Fmt.t
