(** Differential replay: drive one recorded schedule through BOTH
    implementations of the operational semantics — the checker's
    interpreter ({!P_semantics.Step}) and the compiled table-driven
    runtime ({!P_compile} + {!P_runtime.Exec} in stepped mode) — and
    cross-check them after every atomic block.

    The paper's central promise is that the checker and the generated
    code execute the same semantics; this module tests that promise on
    concrete runs. The runtime normally erases ghost machines before
    compiling, so the comparison uses {!P_compile.Compile.compile_full}
    tables (ghosts kept, [*] lowered to [CNondet]) and
    {!P_runtime.Exec.step_block}, which stops at the same scheduling
    points the interpreter yields at. Machine identifiers align by
    construction: both layers allocate densely in creation order, and a
    replayed schedule fixes the creation order.

    Outcomes are compared by {e kind} (progress / blocked / terminated /
    error) because the two layers render error messages differently; the
    full machine states — control stack, store, queue, [msg]/[arg] — are
    compared structurally. *)

module Step = P_semantics.Step
module Config = P_semantics.Config
module Machine = P_semantics.Machine
module Equeue = P_semantics.Equeue
module Value = P_semantics.Value
module Errors = P_semantics.Errors
module Mid = P_semantics.Mid
module Names = P_syntax.Names
module Tables = P_compile.Tables
module Exec = P_runtime.Exec
module Context = P_runtime.Context
module Rt_value = P_runtime.Rt_value

type verdict =
  | Agree_clean  (** the whole schedule ran; every intermediate state matched *)
  | Agree_error of string
      (** both layers hit an error configuration in the same block; the
          payload is the interpreter's rendering *)

type outcome =
  | Agree of { blocks : int; verdict : verdict }
  | Mismatch of { step : int; reason : string }
      (** the layers disagreed after (or in) atomic block [step] *)

let pp_outcome ppf = function
  | Agree { blocks; verdict = Agree_clean } ->
    Fmt.pf ppf "layers agree on all %d block(s), no error" blocks
  | Agree { blocks; verdict = Agree_error e } ->
    Fmt.pf ppf "layers agree after %d block(s), both fail: %s" blocks e
  | Mismatch { step; reason } ->
    Fmt.pf ppf "LAYERS DIVERGED at block %d: %s" step reason

(* ------------------------------------------------------------------ *)
(* State comparison                                                    *)
(* ------------------------------------------------------------------ *)

let value_matches driver (v : Value.t) (rv : Rt_value.t) : bool =
  Value.equal v (Rt_value.to_value driver rv)

let pp_pair ppf (v, rv) = Fmt.pf ppf "%a vs %a" Value.pp v Rt_value.pp rv

(* One machine: interpreter configuration vs runtime context. *)
let compare_machine driver (m : Machine.t) (ctx : Context.t) :
    (unit, string) result =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let who = Fmt.str "machine %a (%s)" Mid.pp m.self ctx.Context.table.mt_name in
  if not (String.equal (Names.Machine.to_string m.name) ctx.Context.table.mt_name)
  then
    fail "%s: type %s vs %s" who
      (Names.Machine.to_string m.name)
      ctx.Context.table.mt_name
  else
    let istates =
      List.map (fun (f : Machine.frame) -> Names.State.to_string f.fr_state) m.frames
    in
    let rstates =
      List.map
        (fun (f : Context.frame) ->
          ctx.Context.table.mt_states.(f.Context.f_state).Tables.st_name)
        ctx.Context.frames
    in
    if istates <> rstates then
      fail "%s: state stack [%s] vs [%s]" who
        (String.concat "; " istates)
        (String.concat "; " rstates)
    else
      let msg_ok =
        match (m.msg, ctx.Context.msg) with
        | None, None -> true
        | Some e, Some id ->
          Tables.event_id_of_name driver (Names.Event.to_string e) = Some id
        | _ -> false
      in
      if not msg_ok then fail "%s: msg differs" who
      else if not (value_matches driver m.arg ctx.Context.arg) then
        fail "%s: arg %a" who pp_pair (m.arg, ctx.Context.arg)
      else begin
        (* the store, variable by declared variable *)
        let bad_var = ref None in
        Array.iteri
          (fun i (name, _ty) ->
            if !bad_var = None then
              let iv =
                Option.value ~default:Value.Null
                  (Names.Var.Map.find_opt (Names.Var.of_string name) m.store)
              in
              let rv = ctx.Context.vars.(i) in
              if not (value_matches driver iv rv) then bad_var := Some (name, iv, rv))
          ctx.Context.table.mt_vars;
        match !bad_var with
        | Some (name, iv, rv) -> fail "%s: var %s: %a" who name pp_pair (iv, rv)
        | None -> (
          let iq = Equeue.to_list m.queue in
          let rq = Context.inbox_list ctx in
          if List.length iq <> List.length rq then
            fail "%s: queue length %d vs %d" who (List.length iq) (List.length rq)
          else
            match
              List.find_opt
                (fun ((entry : Equeue.entry), (e, rv)) ->
                  Tables.event_id_of_name driver
                    (Names.Event.to_string entry.event)
                  <> Some e
                  || not (value_matches driver entry.payload rv))
                (List.combine iq rq)
            with
            | Some (entry, (e, rv)) ->
              fail "%s: queue entry (%a, %a) vs (event#%d, %a)" who
                Names.Event.pp entry.event Value.pp entry.payload e Rt_value.pp rv
            | None -> Ok ())
      end

(* Whole configurations: the same live machines, each matching. *)
let compare_states driver (rt : Exec.t) (config : Config.t) : (unit, string) result
    =
  let live_rt = Hashtbl.length rt.Exec.instances in
  let live_i = Config.live_count config in
  if live_rt <> live_i then
    Error (Fmt.str "live machines: %d in interpreter vs %d in runtime" live_i live_rt)
  else
    Config.fold
      (fun mid m acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match Exec.find_instance rt (Mid.to_int mid) with
          | None ->
            Error
              (Fmt.str "machine %a is live in the interpreter only" Mid.pp mid)
          | Some ctx -> compare_machine driver m ctx))
      config (Ok ())

(* ------------------------------------------------------------------ *)
(* The differential run                                                *)
(* ------------------------------------------------------------------ *)

(* Build the runtime half: full tables, foreign stubs, the main instance
   with its initializers applied but its entry statement not yet run —
   exactly the peer of Step.initial_config. *)
let make_runtime (tab : P_static.Symtab.t) : (Exec.t * Tables.driver, string) result
    =
  match P_compile.Compile.compile_full ~name:"differential" tab.P_static.Symtab.program with
  | exception P_compile.Compile.Error msg -> Error msg
  | exception P_compile.Lower.Not_compilable msg -> Error msg
  | driver -> (
    let rt = Exec.create driver in
    (* The interpreter evaluates a foreign's declared model expression, or
       yields ⊥ when there is none. Models are ghost-world AST and are not
       lowered into tables, so parity is only possible for model-free
       foreigns: stub each one with the ⊥ the interpreter would produce. *)
    Array.iter
      (fun (mt : Tables.machine_table) ->
        Array.iter
          (fun (fs : Tables.foreign_sig) ->
            Exec.register_foreign rt fs.fs_name (fun _ _ -> Rt_value.Null))
          mt.mt_foreigns)
      driver.dr_machines;
    let has_model =
      List.exists
        (fun (m : P_syntax.Ast.machine) ->
          List.exists
            (fun (fd : P_syntax.Ast.foreign_decl) -> fd.foreign_model <> None)
            m.foreigns)
        tab.P_static.Symtab.program.machines
    in
    if has_model then
      Error "program declares foreign models, which only the interpreter evaluates"
    else
      match driver.dr_main with
      | None -> Error "full tables lost the main machine"
      | Some ty ->
        let main = Exec.create_instance rt ~creator:None ty in
        List.iter
          (fun (x, e) -> Exec.assign main x (Exec.eval rt main e))
          driver.dr_main_init;
        Ok (rt, driver))

let interp_kind = function
  | Step.Progress _ -> "progress"
  | Step.Blocked _ -> "blocked"
  | Step.Terminated _ -> "terminated"
  | Step.Failed e -> Fmt.str "error (%s)" (Errors.to_string e)
  | Step.Need_more_choices -> "choices exhausted"

let rt_kind = function
  | Exec.Block_progress -> "progress"
  | Exec.Block_blocked -> "blocked"
  | Exec.Block_terminated -> "terminated"
  | Exec.Block_error msg -> Fmt.str "error (%s)" msg
  | Exec.Block_choices_exhausted -> "choices exhausted"

(** Run [schedule] through both layers, comparing after every block.
    [Error] means the differential could not be set up or the schedule is
    itself invalid (names a machine neither layer has, or under-supplies
    ghost choices in both) — as opposed to [Ok (Mismatch _)], which is the
    interesting case: the layers disagree.

    [faults] installs the same deterministic fault plan on both sides:
    the interpreter threads it through {!Step.run_atomic} (fault index in
    the configuration), the runtime through {!Exec.set_fault_plan} (fault
    index on the engine) — both consume indices at the same hooks in the
    same order, so drops, duplicates, reorders, delays, and
    crash-restarts land identically and the state comparison stays
    exact. *)
let run ?faults (tab : P_static.Symtab.t) (schedule : (Mid.t * bool list) list) :
    (outcome, string) result =
  let faults =
    match faults with
    | Some p when not (P_semantics.Fault.is_none p) -> Some p
    | _ -> None
  in
  match make_runtime tab with
  | Error _ as e -> e
  | Ok (rt, driver) ->
    Exec.set_fault_plan rt faults;
    let config0, _main, _items = Step.initial_config tab in
    let mismatch step reason = Ok (Mismatch { step; reason }) in
    let rec go i config = function
      | [] -> Ok (Agree { blocks = i; verdict = Agree_clean })
      | (mid, choices) :: rest -> (
        let rt_ctx =
          match Exec.find_instance rt (Mid.to_int mid) with
          | Some ctx when ctx.Context.alive -> Some ctx
          | _ -> None
        in
        match (Config.mem config mid, rt_ctx) with
        | false, None ->
          Error
            (Fmt.str "invalid schedule: step %d names machine %a, which neither layer has"
               i Mid.pp mid)
        | true, None -> mismatch i (Fmt.str "machine %a is live in the interpreter only" Mid.pp mid)
        | false, Some _ -> mismatch i (Fmt.str "machine %a is live in the runtime only" Mid.pp mid)
        | true, Some ctx -> (
          let iout, _items = Step.run_atomic ~dedup:true ?faults tab config mid ~choices in
          let rout = Exec.step_block rt ctx ~choices in
          match (iout, rout) with
          | Step.Failed e, Exec.Block_error _ ->
            Ok (Agree { blocks = i + 1; verdict = Agree_error (Errors.to_string e) })
          | Step.Need_more_choices, Exec.Block_choices_exhausted ->
            Error
              (Fmt.str "invalid schedule: step %d under-supplies ghost choices in both layers"
                 i)
          | (Step.Progress _ | Step.Blocked _ | Step.Terminated _), (Exec.Block_progress | Exec.Block_blocked | Exec.Block_terminated)
            when interp_kind iout = rt_kind rout -> (
            let config' = Option.get (Step.outcome_config iout) in
            match compare_states driver rt config' with
            | Error reason -> mismatch i reason
            | Ok () -> go (i + 1) config' rest)
          | _ ->
            mismatch i
              (Fmt.str "outcome kinds differ: interpreter %s, runtime %s"
                 (interp_kind iout) (rt_kind rout))))
    in
    go 0 config0 schedule

(** Differential check of a trace artifact: replay its schedule through
    both layers, then hold the agreed verdict against what the artifact
    recorded. *)
let check_trace (tab : P_static.Symtab.t) (t : Trace_file.t) :
    (outcome, string) result =
  if not t.Trace_file.dedup then
    Error
      "trace was recorded without queue deduplication; the runtime only implements the paper's deduplicating append"
  else
    match Trace_file.fault_plan t with
    | Error e -> Error e
    | Ok faults ->
    match run ?faults tab (Replay.schedule_of_trace t) with
    | Error _ as e -> e
    | Ok (Mismatch _ as o) -> Ok o
    | Ok (Agree { verdict; _ } as o) -> (
      match (t.Trace_file.error, verdict) with
      | None, Agree_clean -> Ok o
      | Some expected, Agree_error got when String.equal expected got -> Ok o
      | Some expected, Agree_error got ->
        Error
          (Fmt.str "layers agree but on the wrong error: artifact recorded %S, both produced %S"
             expected got)
      | Some expected, Agree_clean ->
        Error
          (Fmt.str "layers agree on a clean run, but the artifact recorded error %S" expected)
      | None, Agree_error got ->
        Error (Fmt.str "layers agree on error %S, but the artifact recorded a clean run" got))
