(** One-call verification front end: static checks, bounded safety search
    with the delay-bounded scheduler, and (optionally) the liveness checks.
    This is the OCaml counterpart of the paper's "compile to Zing and
    explore" pipeline. *)

module Symtab = P_static.Symtab

type report = {
  static_diagnostics : Symtab.diagnostic list;
  safety : Search.result option;  (** [None] when static checking failed *)
  liveness : Liveness.result option;  (** [None] unless requested and static-clean *)
  seed : int option;
      (** the PRNG seed when the safety search sampled ghost choices
          ([verify ?seed]); recorded so a failure report is reproducible *)
  domains : int option;
      (** how many domains the safety search ran across ([verify
          ?domains]); [None] for the sequential engine *)
  faults : P_semantics.Fault.plan option;
      (** the fault-injection plan the safety search ran under ([verify
          ?faults]); [None] for a well-behaved host *)
}

type outcome = Clean | Failed | Inconclusive

let outcome r =
  let live_ok, live_complete =
    match r.liveness with
    | None -> (true, true)
    | Some { violations; complete; _ } -> (violations = [], complete)
  in
  match r.safety with
  | Some { verdict = Search.No_error; stats } when r.static_diagnostics = [] && live_ok ->
    if stats.truncated || not live_complete then Inconclusive else Clean
  | _ -> Failed

let is_clean r = outcome r = Clean

let pp_report ppf r =
  (match r.static_diagnostics with
  | [] -> Fmt.pf ppf "static checks: ok@."
  | ds ->
    Fmt.pf ppf "static checks: %d error(s)@." (List.length ds);
    List.iter (fun d -> Fmt.pf ppf "  %a@." Symtab.pp_diagnostic d) ds);
  (match r.safety with
  | None -> ()
  | Some res when res.stats.truncated && outcome r = Inconclusive ->
    Fmt.pf ppf "safety: inconclusive (state budget exhausted) (%a)@."
      Search.pp_stats res.stats
  | Some res -> Fmt.pf ppf "safety: %a@." Search.pp_result res);
  (match r.seed with
  | Some s -> Fmt.pf ppf "seed: %d (sampled ghost choices; rerun with --seed %d)@." s s
  | None -> ());
  (match r.domains with
  | Some d -> Fmt.pf ppf "domains: %d (work-stealing parallel safety search)@." d
  | None -> ());
  (match r.faults with
  | Some p ->
    Fmt.pf ppf "faults: %a (seed %d; rerun with --faults %a --fault-seed %d)@."
      P_semantics.Fault.pp p p.P_semantics.Fault.seed P_semantics.Fault.pp p
      p.P_semantics.Fault.seed
  | None -> ());
  match r.liveness with
  | None -> ()
  | Some res ->
    Fmt.pf ppf "liveness: %d violation(s) over %d states%s, %.3fs@."
      (List.length res.violations) res.explored_states
      (if res.complete then ""
       else if res.violations = [] then " (inconclusive: state budget exhausted)"
       else " (truncated)")
      res.elapsed_s;
    List.iter
      (fun (v, w) ->
        Fmt.pf ppf "  %a@." Liveness.pp_violation v;
        match w with
        | Some w -> Fmt.pf ppf "  @[<v 2>witness lasso:@ %a@]@." Liveness.pp_witness w
        | None -> ())
      res.witnesses

let sampled_resolver seed =
  let rng = Random_walk.make_rng seed in
  Engine.Sampled (fun () -> Random_walk.rand_bool rng)

(** Verify a program: static checks, then delay-bounded safety search, then
    (if [liveness]) the fair-cycle liveness analysis. With [seed] the
    safety search samples ghost [*] choices from a PRNG instead of
    enumerating them — a fast reproducible smoke run whose seed lands in
    the report. *)
let verify ?(delay_bound = 2) ?(max_states = 200_000) ?(liveness = false)
    ?liveness_max_states ?(fingerprint = Fingerprint.Incremental)
    ?(store = State_store.Exact) ?store_capacity ?(reduce = Reduce.none) ?seed
    ?domains ?faults ?(instr = Search.no_instr)
    (program : P_syntax.Ast.program) : report =
  (if seed <> None && domains <> None then
     (* sampled resolution draws from one shared PRNG closure, which the
        parallel workers would race on *)
     invalid_arg "Verifier.verify: ~seed and ~domains are mutually exclusive");
  let faults =
    match faults with
    | Some p when P_semantics.Fault.is_none p -> None
    | f -> f
  in
  (if faults <> None && liveness then
     (* the liveness graph is built by a separate engine that does not
        thread fault plans yet; refuse rather than silently checking the
        fault-free graph *)
     invalid_arg "Verifier.verify: ~faults and ~liveness are not supported together");
  let { P_static.Check.symtab; diagnostics } = P_static.Check.run program in
  if diagnostics <> [] then
    { static_diagnostics = diagnostics;
      safety = None;
      liveness = None;
      seed;
      domains;
      faults }
  else
    let safety =
      match domains with
      | Some d ->
        Parallel.explore ~domains:d ~delay_bound ~max_states ~fingerprint
          ~store ?store_capacity ~reduce ?faults ~instr symtab
      | None ->
        let resolver =
          match seed with None -> Engine.Exhaustive | Some s -> sampled_resolver s
        in
        Delay_bounded.explore ~delay_bound ~max_states ~fingerprint ~resolver
          ~store ?store_capacity ~reduce ?faults ~instr symtab
    in
    let liveness_result =
      if liveness && safety.verdict = Search.No_error then
        Some (Liveness.check ?max_states:liveness_max_states ~instr symtab)
      else None
    in
    { static_diagnostics = [];
      safety = Some safety;
      liveness = liveness_result;
      seed;
      domains;
      faults }
