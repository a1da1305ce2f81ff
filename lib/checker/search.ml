(** Shared infrastructure of the systematic-testing engines: enumeration of
    ghost [*] choices within one atomic block, exploration statistics, and
    verdicts. *)

module Step = P_semantics.Step
module Config = P_semantics.Config
module Errors = P_semantics.Errors
module Trace = P_semantics.Trace
module Mid = P_semantics.Mid
module Symtab = P_static.Symtab

(** One fully resolved atomic block: the outcome of running a machine with a
    concrete resolution of its ghost choices. *)
type resolved = {
  choices : bool list;
  outcome : Step.outcome;  (** never [Need_more_choices] *)
  items : Trace.item list;
}

(** Enumerate every resolution of the ghost [*] choices hit while running
    machine [mid] one atomic block from [config]. Depth-first, false first,
    so resolutions come out in a deterministic order. The choice prefix is
    carried reversed — extending it is a cons, not an O(depth) append — and
    flipped forward once per [run_atomic] call. *)
let default_enumeration_budget = 256

let resolutions ?fuel ?dedup ?faults ?(budget = default_enumeration_budget)
    ?on_overflow (tab : Symtab.t) (config : Config.t) (mid : Mid.t) :
    resolved list =
  let acc = ref [] in
  let remaining = ref budget in
  let overflowed = ref false in
  let rec go rev_choices =
    if !remaining <= 0 then begin
      (* a block that keeps demanding choices — e.g. a cycle of private
         operations consuming a [*] every lap, invisible to the in-block
         livelock detector because each lap runs under a different choice
         prefix — would make this DFS diverge. Stop enumerating and let the
         caller record the truncation, like a state-budget cut. *)
      if not !overflowed then begin
        overflowed := true;
        Option.iter (fun f -> f ()) on_overflow
      end
    end
    else begin
      decr remaining;
      let choices = List.rev rev_choices in
      match Step.run_atomic ?fuel ?dedup ?faults tab config mid ~choices with
      | Step.Need_more_choices, _ ->
        go (false :: rev_choices);
        go (true :: rev_choices)
      | outcome, items -> acc := { choices; outcome; items } :: !acc
    end
  in
  go [];
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Statistics and verdicts                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable states : int;  (** distinct scheduler states visited *)
  mutable transitions : int;  (** atomic blocks executed *)
  mutable pruned : int;
      (** enabled moves suppressed by sleep-set reduction; 0 with
          reduction off *)
  mutable max_depth : int;  (** longest path from the initial state, in blocks *)
  mutable truncated : bool;  (** a bound cut the exploration short *)
  mutable faults : int;
      (** injected faults that fired (drop/dup/reorder/delay/crash trace
          items observed); 0 with fault injection off *)
  mutable elapsed_s : float;
  mutable store : State_store.summary option;
      (** the seen set's end-of-run summary (kind, footprint, occupancy,
          omission bound); [None] for engines that keep no seen set *)
}

let new_stats () =
  { states = 0;
    transitions = 0;
    pruned = 0;
    max_depth = 0;
    truncated = false;
    faults = 0;
    elapsed_s = 0.;
    store = None }

let pp_stats ppf s =
  Fmt.pf ppf "%d states, %d transitions, depth %d%s, %.3fs" s.states s.transitions
    s.max_depth
    (if s.truncated then " (truncated)" else "")
    s.elapsed_s;
  if s.pruned > 0 then Fmt.pf ppf " [%d moves slept]" s.pruned;
  if s.faults > 0 then Fmt.pf ppf " [%d faults injected]" s.faults;
  (* the default exact store is the historical output; only the compact
     store announces itself (and its honesty bound) *)
  match s.store with
  | Some st when st.State_store.s_kind <> "exact" ->
    Fmt.pf ppf " [store %s, %.1f MB" st.State_store.s_kind
      (float_of_int st.State_store.s_bytes /. 1e6);
    if st.State_store.s_omission_bound > 0.0 then
      Fmt.pf ppf ", expected hash omissions <= %.3g"
        st.State_store.s_omission_bound;
    Fmt.pf ppf "]"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(** What an engine run reports while it runs: a metrics registry to count
    into, a structured trace sink for lifecycle spans, a phase profiler and
    a telemetry sampler (the CLI's [--progress] heartbeats). The default
    {!no_instr} is free: engines guard every instrumented point on it, and
    the property tests check results are identical with instrumentation
    on. *)
type instr = {
  metrics : P_obs.Metrics.t option;
  sink : P_obs.Sink.t;
  profile : P_obs.Profile.t;
      (** per-domain phase profiler; engines record expand / steal /
          barrier / shard-lock spans into it and poll its GC cursor from
          their tick points. {!P_obs.Profile.null} (the default) makes
          every hook a no-op. *)
  telemetry : P_obs.Telemetry.t;
      (** sampling ticker; engines install a probe over their live
          counters and poke it from their tick points *)
}

let no_instr =
  { metrics = None;
    sink = P_obs.Sink.null;
    profile = P_obs.Profile.null;
    telemetry = P_obs.Telemetry.null }

let instr ?metrics ?(sink = P_obs.Sink.null) ?(profile = P_obs.Profile.null)
    ?(telemetry = P_obs.Telemetry.null) () =
  { metrics; sink; profile; telemetry }

(** Metric handles pre-resolved for one engine run ([None] when metrics are
    off), so hot loops never touch the registry's intern table. *)
type meters = {
  m_states : P_obs.Metrics.counter;  (** [checker.states] *)
  m_transitions : P_obs.Metrics.counter;  (** [checker.transitions] *)
  m_dedup_hits : P_obs.Metrics.counter;
      (** [checker.dedup_hits] — digest already seen with no smaller budget *)
  m_frontier : P_obs.Metrics.gauge;  (** [checker.frontier_depth] high-water *)
  m_queue_hwm : P_obs.Metrics.gauge;
      (** [checker.queue_len_hwm] — longest per-machine event queue seen *)
  m_fp_requests : P_obs.Metrics.counter;
      (** [checker.fp_requests] — per-machine fingerprint lookups; always
          equals [fp_cache_hits + fp_cache_misses], including multi-domain
          runs (per-worker counters summed at flush) *)
  m_fp_hits : P_obs.Metrics.counter;
      (** [checker.fp_cache_hits] — per-machine fingerprint cache hits *)
  m_fp_misses : P_obs.Metrics.counter;
      (** [checker.fp_cache_misses] — per-machine encodings computed *)
  m_fp_collisions : P_obs.Metrics.counter;
      (** [checker.fp_collisions] — paranoid-mode bijection violations *)
}

let meters ~engine (i : instr) : meters option =
  match i.metrics with
  | None -> None
  | Some reg ->
    let labels = [ ("engine", engine) ] in
    Some
      { m_states = P_obs.Metrics.counter reg ~labels "checker.states";
        m_transitions = P_obs.Metrics.counter reg ~labels "checker.transitions";
        m_dedup_hits = P_obs.Metrics.counter reg ~labels "checker.dedup_hits";
        m_frontier = P_obs.Metrics.gauge reg ~labels "checker.frontier_depth";
        m_queue_hwm = P_obs.Metrics.gauge reg ~labels "checker.queue_len_hwm";
        m_fp_requests = P_obs.Metrics.counter reg ~labels "checker.fp_requests";
        m_fp_hits = P_obs.Metrics.counter reg ~labels "checker.fp_cache_hits";
        m_fp_misses = P_obs.Metrics.counter reg ~labels "checker.fp_cache_misses";
        m_fp_collisions = P_obs.Metrics.counter reg ~labels "checker.fp_collisions" }

(** Longest per-machine event queue in a configuration (for the high-water
    gauge; computed only when metrics are on). *)
let queue_hwm_of_config (config : Config.t) : float =
  float_of_int
    (Config.fold
       (fun _ m acc -> max acc (P_semantics.Equeue.length m.P_semantics.Machine.queue))
       config 0)

(** A ticker: pokes the telemetry sampler and the profiler's GC cursor
    every [obs_every] ticks (both are further time-gated internally, so
    the cadence here only bounds staleness). *)
type ticker = {
  tk_instr : instr;
  mutable tk_obs : int;
}

let obs_every = 256

let ticker i = { tk_instr = i; tk_obs = obs_every }

let tick (t : ticker) =
  let i = t.tk_instr in
  if P_obs.Telemetry.enabled i.telemetry || P_obs.Profile.enabled i.profile then begin
    t.tk_obs <- t.tk_obs - 1;
    if t.tk_obs <= 0 then begin
      t.tk_obs <- obs_every;
      P_obs.Telemetry.tick i.telemetry;
      P_obs.Profile.poll_gc i.profile
    end
  end

(** Emit the engine lifecycle span shared by all explorers: one complete
    Chrome event covering the whole run, carrying the result stats. *)
let emit_run_span (i : instr) ~engine ~t0_us ~(stats : stats) extra_args =
  if P_obs.Sink.enabled i.sink then
    P_obs.Sink.complete i.sink ~cat:"engine" ~name:(engine ^ ".explore") ~ts_us:t0_us
      ~dur_us:(P_obs.Mclock.now_us () -. t0_us)
      ~args:
        ([ ("states", P_obs.Json.Int stats.states);
           ("transitions", P_obs.Json.Int stats.transitions);
           ("max_depth", P_obs.Json.Int stats.max_depth);
           ("truncated", P_obs.Json.Bool stats.truncated) ]
        @ extra_args)
      ()

type counterexample = {
  error : Errors.t;
  trace : Trace.t;
  depth : int;
  schedule : (Mid.t * bool list) list;
      (** the schedule that reaches the error: per atomic block, the
          machine that ran and the ghost [*] resolutions it consumed, from
          the initial configuration up to and including the failing block.
          Scheduler-independent: replaying it through
          {!P_semantics.Step.run_atomic} rebuilds the trace (this is what
          {!Replay} and the on-disk {!Trace_file} artifact consume). *)
}

type verdict =
  | No_error  (** the bounded exploration found no error configuration *)
  | Error_found of counterexample

type result = { verdict : verdict; stats : stats }

let pp_verdict ppf = function
  | No_error -> Fmt.string ppf "no error found"
  | Error_found ce ->
    Fmt.pf ppf "ERROR at depth %d: %a" ce.depth Errors.pp ce.error

let pp_result ppf r = Fmt.pf ppf "%a (%a)" pp_verdict r.verdict pp_stats r.stats
