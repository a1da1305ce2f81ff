(** Checking the two responsiveness (liveness) properties of section 3.2.

    The paper specifies the properties in LTL but leaves their verification
    to future work (section 5); this module implements them for finite state
    spaces by fair-cycle detection over the full-interleaving state graph:

    - Property 1 (no private divergence), violated by executions satisfying
      [∃m. ◇□ sched(m)]: a reachable cycle all of whose steps are taken by
      one machine. Because a cycle of *private* operations never reaches a
      scheduling point, that violation is already caught inside a single
      atomic block by {!P_semantics.Step} (the [Livelock] error); here we
      additionally catch cycles a machine sustains on its own through its
      scheduling points (e.g. sending to itself forever).

    - Property 2 (no event deferred forever), violated by fair executions
      satisfying [∃m,e,m'. ◇(enq(m,e,m') ∧ □¬deq(m',e))], refined by the
      [postpone] annotation: we search for a strongly connected subgraph in
      which (a) every machine continuously enabled throughout the component
      is scheduled on some internal edge — the fairness side condition
      [∀m. fair(m)] — and (b) some queue entry is pending in every state of
      the component and dequeued on none of its edges, and (c) under the
      refined check, the entry's event is not in the postponed set of its
      queue's machine in any state of the component (a conservative witness
      for [◇□¬ppn]).

    The analysis is a cover-cycle argument: inside one SCC a single cycle can
    traverse any chosen set of states and edges, so conditions quantified
    over the whole component witness a genuine lasso. *)

open P_syntax
module Config = P_semantics.Config
module Step = P_semantics.Step
module Machine = P_semantics.Machine
module Equeue = P_semantics.Equeue
module Mid = P_semantics.Mid
module Value = P_semantics.Value
module Symtab = P_static.Symtab

type violation =
  | Private_divergence of { mid : Mid.t; machine : Names.Machine.t }
      (** property 1: machine [mid] can run forever alone *)
  | Deferred_forever of {
      mid : Mid.t;  (** the machine whose queue holds the starved entry *)
      machine : Names.Machine.t;
      event : Names.Event.t;
      payload : Value.t;
    }  (** property 2: the entry can stay queued forever under fairness *)

let pp_violation ppf = function
  | Private_divergence { mid; machine } ->
    Fmt.pf ppf "liveness: machine %a %a can be scheduled forever (cycle of its own steps)"
      Names.Machine.pp machine Mid.pp mid
  | Deferred_forever { mid; machine; event; _ } ->
    Fmt.pf ppf
      "liveness: event %a sent to machine %a %a can be deferred forever under fair \
       scheduling"
      Names.Event.pp event Names.Machine.pp machine Mid.pp mid

(** A lasso witness: a finite prefix from the initial configuration to the
    violating component, and one cycle inside it (for property 1, a cycle of
    the diverging machine's own steps; for property 2, a representative
    cycle of the component in which the starved entry stays queued). *)
type witness = {
  prefix : P_semantics.Trace.t;
  cycle : P_semantics.Trace.t;
  cycle_machines : Mid.t list;  (** who is scheduled around the cycle *)
}

type result = {
  violations : violation list;
  witnesses : (violation * witness option) list;
      (** the same violations, each with a lasso witness when one could be
          reconstructed *)
  explored_states : int;
  complete : bool;  (** false when [max_states] truncated the graph *)
  elapsed_s : float;  (** wall-clock for graph construction + analysis *)
}

(* ---------------- graph construction ---------------- *)

type edge = {
  dst : int;
  by : Mid.t;
  choices : bool list;  (* ghost resolutions, for witness replay *)
  dequeued : (Mid.t * Names.Event.t * Value.t) list;
}

type graph = {
  configs : Config.t Dynarray.t;
  succs : edge list array ref;  (* resized alongside configs *)
  parents : (int * Mid.t * bool list) option array ref;
      (* first-discovery tree, for witness prefixes *)
  n : int;
}

(* The full-interleaving graph is an {!Engine.run} over [full_nondet] with
   an observer collecting states, edges, and the first-discovery tree;
   [stop_on_error:false] turns the loop into pure graph construction. *)
let build_graph ?(max_states = 50_000) (tab : Symtab.t) =
  let configs = Dynarray.create () in
  let succs = Dynarray.create () in
  let parents = Dynarray.create () in
  let observer =
    { Engine.on_state =
        (fun _i config ->
          Dynarray.add_last configs config;
          Dynarray.add_last succs [];
          Dynarray.add_last parents None);
      on_edge =
        (fun ~src ~src_config:_ ~by ~resolved ~dst ->
          match dst with
          | Engine.Dst_failed _ ->
            () (* safety errors are the safety checker's job *)
          | Engine.Dst_new j | Engine.Dst_seen j ->
            let dequeued =
              List.filter_map
                (function
                  | P_semantics.Trace.Dequeued { mid; event; payload } ->
                    Some (mid, event, payload)
                  | _ -> None)
                resolved.Search.items
            in
            Dynarray.set succs src
              ({ dst = j; by; choices = resolved.Search.choices; dequeued }
              :: Dynarray.get succs src);
            if match dst with Engine.Dst_new _ -> true | _ -> false then
              Dynarray.set parents j (Some (src, by, resolved.Search.choices))) }
  in
  let spec = Engine.spec ~stop_on_error:false ~max_states Engine.full_nondet in
  let r = Engine.run ~observer ~engine:"liveness" spec tab in
  let n = Dynarray.length configs in
  let arr = Array.make (max n 1) [] in
  let par = Array.make (max n 1) None in
  for i = 0 to n - 1 do
    arr.(i) <- Dynarray.get succs i;
    par.(i) <- Dynarray.get parents i
  done;
  ({ configs; succs = ref arr; parents = ref par; n }, not r.Search.stats.truncated)

(* ---------------- Tarjan SCC ---------------- *)

(* The components (each listed root first, sources first) and every node's
   component id, so membership tests are an array read. Recursive Tarjan:
   the depth is at most the graph size, and OCaml 5 grows the stack on
   demand. *)
let sccs (g : graph) : int list list * int array =
  let index = Array.make (max g.n 1) (-1) in
  let lowlink = Array.make (max g.n 1) 0 in
  let on_stack = Array.make (max g.n 1) false in
  let comp = Array.make (max g.n 1) (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let n_components = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun e ->
        if index.(e.dst) = -1 then begin
          strongconnect e.dst;
          lowlink.(v) <- min lowlink.(v) lowlink.(e.dst)
        end
        else if on_stack.(e.dst) then lowlink.(v) <- min lowlink.(v) index.(e.dst))
      !(g.succs).(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !n_components;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components;
      incr n_components
    end
  in
  for v = 0 to g.n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (!components, comp)

(* [inside comp c e]: edge [e] stays in component [c]. *)
let inside comp c e = comp.(e.dst) = c

(* ---------------- lasso witnesses ---------------- *)

(* Edges from the discovery tree, root first. *)
let path_to_root (g : graph) v : (int * Mid.t * bool list) list =
  let rec up v acc =
    match !(g.parents).(v) with
    | None -> acc
    | Some (p, mid, choices) -> up p ((p, mid, choices) :: acc)
  in
  up v []

(* A simple cycle through the edges satisfying [keep], if any: DFS keeping
   the explicit path, closing at the first back edge onto the current path.
   Returns (start node, edges). A node whose search finished without a
   cycle reaches none, so it is recorded in [dead] and never searched again
   (by this or a later anchor): skipping it changes no result. *)
let find_cycle (g : graph) ~keep ~dead v0 : (int * (int * edge) list) option =
  let on_path = Hashtbl.create 16 in
  let exception Cycle of int * (int * edge) list in
  let rec dfs v depth path =
    Hashtbl.replace on_path v depth;
    List.iter
      (fun e ->
        if keep e && not (Hashtbl.mem dead e.dst) then
          match Hashtbl.find_opt on_path e.dst with
          | Some d ->
            (* close the loop: keep the path suffix from e.dst onward *)
            let suffix = List.filteri (fun i _ -> i >= d) (List.rev path) in
            raise (Cycle (e.dst, suffix @ [ (v, e) ]))
          | None -> dfs e.dst (depth + 1) ((v, e) :: path))
      !(g.succs).(v);
    Hashtbl.remove on_path v;
    Hashtbl.replace dead v ()
  in
  try
    dfs v0 0 [];
    None
  with Cycle (start, edges) -> Some (start, edges)

(* Execute a list of (source node, scheduled machine, ghost choices) against
   the stored configurations, collecting the trace items. *)
let replay_edges tab (g : graph) (edges : (int * Mid.t * bool list) list) :
    P_semantics.Trace.t =
  List.concat_map
    (fun (src, mid, choices) ->
      let config = Dynarray.get g.configs src in
      snd (Step.run_atomic tab config mid ~choices))
    edges

let witness_of tab (g : graph) members ~keep : witness option =
  (* try each member as a cycle anchor *)
  let dead = Hashtbl.create 16 in
  let rec try_members = function
    | [] -> None
    | v :: rest -> (
      match find_cycle g ~keep ~dead v with
      | None -> try_members rest
      | Some (start, cycle_edges) ->
        let prefix = replay_edges tab g (path_to_root g start) in
        let cycle =
          replay_edges tab g
            (List.map (fun (src, e) -> (src, e.by, e.choices)) cycle_edges)
        in
        Some
          { prefix;
            cycle;
            cycle_machines = List.map (fun (_, e) -> e.by) cycle_edges })
  in
  try_members members

let pp_witness ppf w =
  Fmt.pf ppf "@[<v>prefix (%d steps):@,%a@,cycle (%d steps, scheduling %a):@,%a@]"
    (List.length w.prefix) P_semantics.Trace.pp w.prefix (List.length w.cycle)
    Fmt.(list ~sep:comma Mid.pp)
    w.cycle_machines P_semantics.Trace.pp w.cycle

(* ---------------- property checks over one SCC ---------------- *)

(* Does the component (its edges are those satisfying [inside]) restricted
   to edges by [m] contain a cycle? DFS cycle detection. *)
let machine_cycle g ~inside members m =
  let color = Hashtbl.create 16 in
  let rec dfs v =
    match Hashtbl.find_opt color v with
    | Some `Done -> false
    | Some `Active -> true
    | None ->
      Hashtbl.replace color v `Active;
      let cyc =
        List.exists (fun e -> inside e && Mid.equal e.by m && dfs e.dst) !(g.succs).(v)
      in
      Hashtbl.replace color v `Done;
      cyc
  in
  List.exists dfs members

(* Returns each violation with the edges its witness cycle may use. *)
let check_scc ?(ignore_ghost_divergence = true) tab g ~inside members :
    (violation * (edge -> bool)) list =
  let nontrivial =
    match members with
    | [ v ] -> List.exists (fun e -> e.dst = v) !(g.succs).(v)
    | _ :: _ :: _ -> true
    | [] -> false
  in
  if not nontrivial then []
  else begin
    let configs = List.map (fun v -> Dynarray.get g.configs v) members in
    let edges = List.concat_map (fun v -> List.filter inside !(g.succs).(v)) members in
    let machines_in_scc =
      List.fold_left
        (fun acc c -> Config.fold (fun id _ acc -> Mid.Set.add id acc) c acc)
        Mid.Set.empty configs
    in
    (* property 1: a cycle of steps all by one machine *)
    let p1 =
      Mid.Set.fold
        (fun m acc ->
          let name =
            List.find_map
              (fun c -> Option.map (fun (mm : Machine.t) -> mm.name) (Config.find c m))
              configs
          in
          let ghost =
            match name with
            | Some n -> Symtab.is_ghost_machine tab n
            | None -> false
          in
          (* ghost machines model the environment, which is allowed to run
             forever; only real machines must not diverge *)
          if (not (ignore_ghost_divergence && ghost)) && machine_cycle g ~inside members m
          then
            ( Private_divergence
                { mid = m;
                  machine = Option.value name ~default:(Names.Machine.of_string "?") },
              fun e -> inside e && Mid.equal e.by m )
            :: acc
          else acc)
        machines_in_scc []
    in
    (* fairness side condition for property 2 *)
    let enabled_in c id =
      match Config.find c id with
      | None -> false
      | Some m -> Machine.is_enabled (Symtab.machine_info_exn tab m.Machine.name) m
    in
    let fair =
      Mid.Set.for_all
        (fun m ->
          List.exists (fun c -> not (enabled_in c m)) configs
          || List.exists (fun e -> Mid.equal e.by m) edges)
        machines_in_scc
    in
    let p2 =
      if not fair then []
      else begin
        (* entries pending in every state and dequeued on no internal edge *)
        let entries_of c =
          Config.fold
            (fun id m acc ->
              List.fold_left
                (fun acc (en : Equeue.entry) -> (id, en.event, en.payload) :: acc)
                acc
                (Equeue.to_list m.Machine.queue))
            c []
        in
        (* each state's entries, computed once *)
        match (configs, List.map entries_of configs) with
        | [], _ | _, [] -> []
        | first :: _, first_entries :: others ->
          let candidate (id, ev, pl) =
            let same (id', ev', pl') =
              Mid.equal id id' && Names.Event.equal ev ev' && Value.equal pl pl'
            in
            List.for_all (List.exists same) others
            && not (List.exists (fun e -> List.exists same e.dequeued) edges)
            && (* refined check: never postponed anywhere in the component *)
            List.for_all
              (fun c ->
                match Config.find c id with
                | None -> false
                | Some m -> (
                  match Machine.current_state m with
                  | None -> false
                  | Some st ->
                    let mi = Symtab.machine_info_exn tab m.Machine.name in
                    not (Names.Event.Set.mem ev (Symtab.postponed_set mi st))))
              configs
          in
          List.filter_map
            (fun ((id, ev, pl) as entry) ->
              if candidate entry then
                match Config.find first id with
                | Some m ->
                  Some
                    ( Deferred_forever
                        { mid = id; machine = m.Machine.name; event = ev; payload = pl },
                      inside )
                | None -> None
              else None)
            first_entries
      end
    in
    p1 @ p2
  end

(* Deduplicate violations across SCCs, keeping the first witness seen. *)
let dedup vs =
  List.fold_left
    (fun acc ((v, _) as item) ->
      if List.exists (fun (v', _) -> v = v') acc then acc else item :: acc)
    [] vs
  |> List.rev

(** Run both liveness checks on the (bounded) full-interleaving state graph,
    reconstructing a lasso witness for every violation found. *)
let check ?max_states ?ignore_ghost_divergence ?(instr = Search.no_instr)
    (tab : Symtab.t) : result =
  let started = P_obs.Mclock.start () in
  let t0_us = P_obs.Mclock.now_us () in
  let g, complete = build_graph ?max_states tab in
  let components, comp = sccs g in
  let found =
    List.concat_map
      (fun members ->
        let inside = inside comp comp.(List.hd members) in
        List.map
          (fun (v, keep) -> (v, (members, keep)))
          (check_scc ?ignore_ghost_divergence tab g ~inside members))
      components
    |> dedup
  in
  let witnesses =
    List.map (fun (v, (members, keep)) -> (v, witness_of tab g members ~keep)) found
  in
  let elapsed_s = P_obs.Mclock.elapsed_s started in
  (match instr.Search.metrics with
  | None -> ()
  | Some reg ->
    let labels = [ ("engine", "liveness") ] in
    P_obs.Metrics.add (P_obs.Metrics.counter reg ~labels "checker.states") g.n;
    P_obs.Metrics.add
      (P_obs.Metrics.counter reg ~labels "checker.violations")
      (List.length witnesses));
  if P_obs.Sink.enabled instr.Search.sink then
    P_obs.Sink.complete instr.Search.sink ~cat:"engine" ~name:"liveness.check"
      ~ts_us:t0_us
      ~dur_us:(P_obs.Mclock.now_us () -. t0_us)
      ~args:
        [ ("graph_states", P_obs.Json.Int g.n);
          ("violations", P_obs.Json.Int (List.length witnesses));
          ("complete", P_obs.Json.Bool complete) ]
      ();
  { violations = List.map fst witnesses;
    witnesses;
    explored_states = g.n;
    complete;
    elapsed_s }
