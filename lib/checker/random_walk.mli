(** Random-walk testing: seeded random schedules with full scheduling
    nondeterminism — the naive baseline the delay-bounded scheduler is
    compared against in the ablation benchmark. *)

(** A failing walk, with enough provenance to reproduce it two ways: rerun
    with [walk_seed], or replay [schedule] directly (see {!Replay} /
    {!Trace_file}). *)
type failure = {
  error : P_semantics.Errors.t;
  trace : P_semantics.Trace.t;
  blocks : int;  (** length of the failing walk, in atomic blocks *)
  walk : int;  (** index of the failing walk *)
  walk_seed : int;  (** the derived per-walk PRNG seed ([seed + walk * 7919]) *)
  schedule : (P_semantics.Mid.t * bool list) list;
      (** replayable schedule of the failing walk *)
}

type result = {
  walks : int;
  errors_found : int;  (** how many walks ended in an error configuration *)
  first_error : failure option;
  seed : int;  (** the base seed the walks were derived from *)
  total_blocks : int;
  elapsed_s : float;
}

val pp_result : result Fmt.t

(** The checker's one PRNG: a self-contained xorshift, so seeded runs
    (walks, sampled schedules, [verify ~seed]) are reproducible without
    global [Random] state. *)
type rng

val make_rng : int -> rng
val rand_int : rng -> int -> int
(** [rand_int rng bound] draws from [0, bound). *)

val rand_bool : rng -> bool

val run :
  ?walks:int ->
  ?max_blocks:int ->
  ?seed:int ->
  ?instr:Search.instr ->
  P_static.Symtab.t ->
  result
(** [run tab] executes [walks] (default 100) independent random schedules
    of at most [max_blocks] (default 1000) atomic blocks each, with both
    the scheduled machine and the ghost [*] choices drawn from a PRNG
    derived from [seed]. Fully reproducible per seed. [instr] metrics:
    [checker.walks], [checker.walk_blocks], [checker.walk_errors]
    (labelled [engine=random_walk]). *)

val run_portfolio :
  ?walks:int ->
  ?max_blocks:int ->
  ?seed:int ->
  ?domains:int ->
  ?instr:Search.instr ->
  P_static.Symtab.t ->
  result
(** The same [walks] seeded walks as {!run}, raced across [domains]
    (default 4) OCaml domains that share nothing but a found-it flag: walk
    [w] runs on domain [w mod domains] with the derived seed
    [seed + w * 7919], and the first failure stops everyone after their
    current walk. Raises {!Parallel.Invalid_domains} on an impossible
    [domains]; [domains = 1] is exactly {!run}.

    Each individual walk is identical to the sequential one with the same
    [walk_seed], so [first_error] reproduces deterministically: rerun with
    its [walk_seed] or replay its [schedule] through {!Replay} /
    {!Trace_file} — [pc shrink] and [pc replay] work unchanged. Aggregate
    numbers are racy by design: [errors_found] and [total_blocks] cover
    whichever walks completed before the flag drained the portfolio, and
    [first_error] is the lowest-indexed failure *reported*, which on a
    multi-core box may occasionally not be the lowest-indexed failure that
    exists. *)
