(** Multicore state-space exploration.

    The paper's case study notes the verifier ran "after using multicores to
    scale the state exploration"; this module is that scaling knob for our
    checker: {!Engine.run_parallel} over the delay-bounded spec — a
    work-stealing search on OCaml 5 domains. Each worker owns a Chase–Lev
    deque and steals from its peers when idle; the seen set is a shared
    {!State_store} — mutex-guarded shards for the exact store, lock-free
    CAS claims on an off-heap arena for the compact store — with the
    min-spent merge rule applied per claim. The search is stratified by
    delays spent, which keeps it deterministic: the state count, the
    transition count, and the found-or-not verdict are independent of the
    number of domains (only wall-clock changes), and a counterexample is
    always the sequential engine's — lowest dense state index, not
    whichever worker won the race.

    The sequential {!Delay_bounded.explore} remains the reference; the test
    suite checks this engine agrees with it on verdicts and state counts,
    and that its own triple is identical across domain counts. *)

type domains_error = { requested : int; recommended : int; hard_limit : int }

exception Invalid_domains of domains_error

(* OCaml's runtime refuses to run more than 128 domains at once
   (Domain.spawn raises a bare Failure past that); stay under it and fail
   with a typed error instead. *)
let hard_limit = 128

let pp_domains_error ppf (e : domains_error) =
  if e.requested < 1 then
    Fmt.pf ppf "%d domains requested; at least 1 is required" e.requested
  else if e.requested > e.hard_limit then
    Fmt.pf ppf
      "%d domains requested; the OCaml runtime supports at most %d concurrent \
       domains"
      e.requested e.hard_limit
  else
    Fmt.pf ppf
      "%d domains requested, but this machine only recommends %d \
       (Domain.recommended_domain_count); extra domains oversubscribe cores \
       and slow the search down"
      e.requested e.recommended

let validate_domains ?(hard = false) ?recommended requested =
  let recommended =
    match recommended with
    | Some r -> r
    | None -> Domain.recommended_domain_count ()
  in
  let err = { requested; recommended; hard_limit } in
  if requested < 1 then Error err
  else if requested > hard_limit then Error err
  else if (not hard) && requested > recommended then Error err
  else Ok requested

(** Parallel delay-bounded exploration. Same verdicts and state counts as
    {!Delay_bounded.explore} (Causal discipline, ⊕ queues); [domains] only
    affects wall-clock time. *)
let explore ?(max_states = 1_000_000) ?(domains = 4)
    ?(fingerprint = Fingerprint.Incremental) ?(store = State_store.Exact)
    ?store_capacity ?(reduce = Reduce.none) ?faults ?(instr = Search.no_instr)
    ~delay_bound (tab : P_static.Symtab.t) : Search.result =
  let domains =
    match validate_domains ~hard:true domains with
    | Ok d -> d
    | Error e -> raise (Invalid_domains e)
  in
  let spec =
    Engine.spec ~bound:delay_bound ~max_states ~fp_mode:fingerprint ~store
      ?store_capacity ~reduce ?faults
      (Engine.stack_sched Engine.Causal)
  in
  Engine.run_parallel ~instr ~engine:"parallel"
    ~span_args:
      [ ("delay_bound", P_obs.Json.Int delay_bound);
        ("domains", P_obs.Json.Int domains) ]
    ~domains spec tab
