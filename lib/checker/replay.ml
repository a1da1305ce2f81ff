(** Deterministic re-execution of recorded schedules through the
    operational semantics.

    A schedule — per atomic block, the machine that ran and the ghost [*]
    resolutions it consumed — pins down a run completely: the operational
    semantics has no other source of nondeterminism. Replaying is therefore
    just folding {!P_semantics.Step.run_atomic} over the schedule, checking
    at every step that what happens matches what the artifact promised
    (same error, same configuration fingerprints).

    The same core validates {!Shrink} candidates, where divergence is the
    expected common case: removing a step can orphan a machine creation,
    starve a queue, or desynchronise the ghost choices, and every such
    candidate is simply reported as {!Diverged} and discarded. *)

module Step = P_semantics.Step
module Config = P_semantics.Config
module Errors = P_semantics.Errors
module Trace = P_semantics.Trace
module Mid = P_semantics.Mid

type divergence =
  | Init_digest_mismatch of { expected : string; got : string }
      (** the initial configuration is not the one the trace was recorded
          from (different program, program version, or example) *)
  | Step_digest_mismatch of { step : int; expected : string; got : string }
      (** the configuration after [step] drifted from the recording *)
  | Unknown_machine of { step : int; mid : Mid.t }
      (** the schedule names a machine the configuration does not have
          (never created, or already deleted) *)
  | Choices_exhausted of { step : int; mid : Mid.t }
      (** the block evaluated more ghost [*] expressions than the recorded
          choice list supplies *)
  | Wrong_error of { step : int; expected : string; got : string }
  | Unexpected_error of { step : int; error : string }
      (** a clean trace hit an error configuration *)
  | No_error of { expected : string }
      (** the schedule ran out without reproducing the recorded error *)
  | Final_digest_mismatch of { expected : string; got : string }
  | Bad_header of { reason : string }
      (** the artifact's header cannot be honoured (e.g. an unparseable
          fault spec), so the schedule cannot even start *)

let pp_divergence ppf = function
  | Init_digest_mismatch { expected; got } ->
    Fmt.pf ppf "initial configuration mismatch: trace was recorded from %s, got %s"
      expected got
  | Step_digest_mismatch { step; expected; got } ->
    Fmt.pf ppf "configuration after step %d diverged: recorded %s, got %s" step
      expected got
  | Unknown_machine { step; mid } ->
    Fmt.pf ppf "step %d schedules machine %a, which does not exist" step Mid.pp mid
  | Choices_exhausted { step; mid } ->
    Fmt.pf ppf "step %d (machine %a) needs more ghost choices than recorded" step
      Mid.pp mid
  | Wrong_error { step; expected; got } ->
    Fmt.pf ppf "step %d failed with a different error: expected %s, got %s" step
      expected got
  | Unexpected_error { step; error } ->
    Fmt.pf ppf "clean trace hit an error at step %d: %s" step error
  | No_error { expected } ->
    Fmt.pf ppf "schedule completed without reproducing the error: %s" expected
  | Final_digest_mismatch { expected; got } ->
    Fmt.pf ppf "final configuration diverged: recorded %s, got %s" expected got
  | Bad_header { reason } -> Fmt.pf ppf "cannot honour trace header: %s" reason

type outcome =
  | Reproduced of { steps_used : int; error : string }
      (** the expected error re-occurred after [steps_used] atomic blocks
          (possibly fewer than the schedule has — early reproduction) *)
  | Clean of { steps_used : int; final_digest : string }
      (** a trace with no expected error replayed to the end *)
  | Diverged of divergence

let pp_outcome ppf = function
  | Reproduced { steps_used; error } ->
    Fmt.pf ppf "reproduced after %d step(s): %s" steps_used error
  | Clean { steps_used; final_digest } ->
    Fmt.pf ppf "clean after %d step(s), final state %s" steps_used final_digest
  | Diverged d -> Fmt.pf ppf "DIVERGED: %a" pp_divergence d

type result = {
  outcome : outcome;
  items : Trace.t;  (** chronological happenings of the whole replay *)
  final_config : Config.t option;
      (** the last configuration that exists: after the final block of a
          clean replay, or entering the failing block *)
}

(* ------------------------------------------------------------------ *)
(* Core fold                                                           *)
(* ------------------------------------------------------------------ *)

(** Fold a schedule through {!Step.run_atomic}. [check_step i config]
    vetoes the successor configuration of step [i] (digest checks);
    [expected_error] is the rendered error the schedule must end in, or
    [None] for a clean trace. *)
let run_schedule ?(dedup = true) ?faults ?check_step ?(expected_error = None)
    (tab : P_static.Symtab.t) (schedule : (Mid.t * bool list) list) : result =
  let config0, _main, items0 = Step.initial_config tab in
  let diverged config items_rev d =
    { outcome = Diverged d; items = List.rev items_rev; final_config = config }
  in
  let rec go i config items_rev = function
    | [] -> (
      let items = List.rev items_rev in
      match expected_error with
      | Some expected ->
        { outcome = Diverged (No_error { expected });
          items;
          final_config = Some config }
      | None ->
        { outcome = Clean { steps_used = i; final_digest = "" };
          items;
          final_config = Some config })
    | (mid, choices) :: rest ->
      if not (Config.mem config mid) then
        diverged (Some config) items_rev (Unknown_machine { step = i; mid })
      else (
        match Step.run_atomic ~dedup ?faults tab config mid ~choices with
        | Step.Need_more_choices, _ ->
          diverged (Some config) items_rev (Choices_exhausted { step = i; mid })
        | Step.Failed e, new_items -> (
          let items_rev = List.rev_append new_items items_rev in
          let got = Errors.to_string e in
          match expected_error with
          | Some expected when String.equal expected got ->
            { outcome = Reproduced { steps_used = i + 1; error = got };
              items = List.rev items_rev;
              final_config = Some config }
          | Some expected ->
            diverged (Some config) items_rev (Wrong_error { step = i; expected; got })
          | None ->
            diverged (Some config) items_rev (Unexpected_error { step = i; error = got })
          )
        | outcome, new_items -> (
          let items_rev = List.rev_append new_items items_rev in
          (* Progress, Blocked, or Terminated: all carry a successor. *)
          let config' = Option.get (Step.outcome_config outcome) in
          match Option.bind check_step (fun f -> f i config') with
          | Some d -> diverged (Some config') items_rev d
          | None -> go (i + 1) config' items_rev rest))
  in
  go 0 config0 (List.rev items0) schedule

(** Cheap validity check for {!Shrink} candidates: does this schedule still
    reproduce [expected_error]? No digest bookkeeping. *)
let reproduces ?(dedup = true) ?faults (tab : P_static.Symtab.t) ~expected_error
    schedule : int option =
  match
    (run_schedule ~dedup ?faults ~expected_error:(Some expected_error) tab schedule)
      .outcome
  with
  | Reproduced { steps_used; _ } -> Some steps_used
  | Clean _ | Diverged _ -> None

(* ------------------------------------------------------------------ *)
(* File replay                                                         *)
(* ------------------------------------------------------------------ *)

let schedule_of_trace (t : Trace_file.t) : (Mid.t * bool list) list =
  List.map (fun (s : Trace_file.step) -> (Mid.of_int s.mid, s.choices)) t.steps

let hex_digest canon config = Digest.to_hex (Canon.digest canon config [])

(** Replay a trace artifact against [tab], checking the verdict and (by
    default) every recorded fingerprint. The fault plan recorded in the
    header (if any) is re-installed, so fault decisions — keyed by the
    plan's seed and the per-path fault index — fire at exactly the same
    points as in the recording. *)
let run ?(check_digests = true) (tab : P_static.Symtab.t) (t : Trace_file.t) :
    result =
  match Trace_file.fault_plan t with
  | Error reason ->
    { outcome = Diverged (Bad_header { reason }); items = []; final_config = None }
  | Ok faults ->
  let canon = Canon.create tab in
  let config0, _main, _items = Step.initial_config tab in
  let init_hex = hex_digest canon config0 in
  if check_digests && t.init_digest <> "" && init_hex <> t.init_digest then
    { outcome =
        Diverged (Init_digest_mismatch { expected = t.init_digest; got = init_hex });
      items = [];
      final_config = None }
  else begin
    let digests = Array.of_list (List.map (fun (s : Trace_file.step) -> s.digest) t.steps) in
    let last_ok_hex = ref init_hex in
    let check_step =
      if not check_digests then None
      else
        Some
          (fun i config ->
            let got = hex_digest canon config in
            let recorded = if i < Array.length digests then digests.(i) else "" in
            if recorded <> "" && recorded <> got then
              Some (Step_digest_mismatch { step = i; expected = recorded; got })
            else begin
              last_ok_hex := got;
              None
            end)
    in
    let r =
      run_schedule ~dedup:t.dedup ?faults ?check_step ~expected_error:t.error tab
        (schedule_of_trace t)
    in
    match r.outcome with
    | Clean { steps_used; _ } ->
      let final_hex =
        match r.final_config with
        | Some c -> hex_digest canon c
        | None -> !last_ok_hex
      in
      if check_digests && t.final_digest <> "" && final_hex <> t.final_digest then
        { r with
          outcome =
            Diverged
              (Final_digest_mismatch { expected = t.final_digest; got = final_hex })
        }
      else { r with outcome = Clean { steps_used; final_digest = final_hex } }
    | Reproduced _ | Diverged _ -> r
  end

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(** Execute [schedule] and record it as a trace artifact, computing the
    per-step fingerprints the replayer will check. If the run fails, the
    artifact ends at the failing block (trailing schedule is dropped) and
    carries the rendered error; a run that completes cleanly records a
    clean trace. Recording itself diverging (bad machine, short choices)
    is an [Error]. *)
let record ?program ?seed ?faults ?(dedup = true) ~engine
    (tab : P_static.Symtab.t) (schedule : (Mid.t * bool list) list) :
    (Trace_file.t, string) Stdlib.result =
  let faults =
    match faults with
    | Some p when not (P_semantics.Fault.is_none p) -> Some p
    | _ -> None
  in
  let fault_fields =
    match faults with
    | None -> (None, None)
    | Some p ->
      (Some (P_semantics.Fault.to_string p), Some p.P_semantics.Fault.seed)
  in
  let fspec, fault_seed = fault_fields in
  let canon = Canon.create tab in
  let config0, _main, _items = Step.initial_config tab in
  let init_digest = hex_digest canon config0 in
  let rec go i config prev_hex steps_rev = function
    | [] ->
      Ok
        (Trace_file.make ?program ?seed ?faults:fspec ?fault_seed ~dedup ~engine
           ~init_digest ~final_digest:prev_hex
           (List.rev steps_rev))
    | (mid, choices) :: rest ->
      if not (Config.mem config mid) then
        Error
          (Fmt.str "recording diverged at step %d: machine %a does not exist" i
             Mid.pp mid)
      else (
        match Step.run_atomic ~dedup ?faults tab config mid ~choices with
        | Step.Need_more_choices, _ ->
          Error
            (Fmt.str "recording diverged at step %d: ghost choices exhausted" i)
        | Step.Failed e, _ ->
          let step =
            { Trace_file.mid = Mid.to_int mid; choices; digest = "" }
          in
          ignore rest;
          Ok
            (Trace_file.make ?program ~error:(Errors.to_string e) ?seed
               ?faults:fspec ?fault_seed ~dedup ~engine ~init_digest
               ~final_digest:prev_hex
               (List.rev (step :: steps_rev)))
        | outcome, _ ->
          let config' = Option.get (Step.outcome_config outcome) in
          let hex = hex_digest canon config' in
          let step = { Trace_file.mid = Mid.to_int mid; choices; digest = hex } in
          go (i + 1) config' hex (step :: steps_rev) rest)
  in
  go 0 config0 init_digest [] schedule

let record_counterexample ?program ?seed ?faults ?dedup ~engine tab
    (ce : Search.counterexample) : (Trace_file.t, string) Stdlib.result =
  record ?program ?seed ?faults ?dedup ~engine tab ce.Search.schedule

(* ------------------------------------------------------------------ *)
(* Sampling clean schedules                                            *)
(* ------------------------------------------------------------------ *)

(** One seeded random walk, recorded as a schedule: repeatedly pick a
    uniformly random enabled machine and random ghost choices until an
    error, quiescence, or [max_blocks]. Unlike {!Random_walk}, the point
    is the schedule itself — food for the replay / shrink / differential
    tests — not bug-finding statistics. *)
let sample_schedule ?(seed = 1) ?(max_blocks = 200) ?(dedup = true) ?faults
    (tab : P_static.Symtab.t) : (Mid.t * bool list) list =
  let rng = Random_walk.make_rng seed in
  let config0, _main, _items = Step.initial_config tab in
  let rec resolve config mid rev_choices =
    let choices = List.rev rev_choices in
    match Step.run_atomic ~dedup ?faults tab config mid ~choices with
    | Step.Need_more_choices, _ ->
      resolve config mid (Random_walk.rand_bool rng :: rev_choices)
    | outcome, _ -> (choices, outcome)
  in
  let rec go i config sched_rev =
    if i >= max_blocks then List.rev sched_rev
    else
      match Step.enabled tab config with
      | [] -> List.rev sched_rev
      | en ->
        let mid = List.nth en (Random_walk.rand_int rng (List.length en)) in
        let choices, outcome = resolve config mid [] in
        let sched_rev = (mid, choices) :: sched_rev in
        (match Step.outcome_config outcome with
        | Some config' -> go (i + 1) config' sched_rev
        | None -> List.rev sched_rev)
  in
  go 0 config0 []
