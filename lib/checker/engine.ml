(** The shared exploration core.

    Every systematic-testing engine in this library walks the same
    transition system — configurations stepped one atomic block at a time,
    ghost [*] choices resolved per block — and differs only in *policy*:
    which machine may run next (scheduler), what a schedule costs (budget),
    how the frontier is ordered (BFS/DFS), whether ghost choices are
    enumerated or sampled, and what happens on an error. Those policies
    used to be five hand-copied BFS loops; this module is the single loop
    they are now instantiations of:

    - {!Delay_bounded}: stack scheduler, budget = delays, exhaustive
      choices, BFS, stop at the first error;
    - {!Depth_bounded}: full nondeterminism, budget = depth (truncating on
      exhaustion), BFS;
    - {!Parallel}: the delay-bounded spec driven by {!run_parallel}, a
      work-stealing search across OCaml 5 domains over a sharded seen set;
    - {!Random_walk}: a one-move random scheduler, sampled choices, no
      seen set — each walk is a degenerate DFS;
    - {!Liveness} and {!Coverage}: full-nondeterminism resp. delay-bounded
      exploration with an {!observer} receiving every state and edge
      ([stop_on_error = false] turns the loop into graph construction).

    State identity is a {!Fingerprint} over the configuration plus the
    scheduler's {!scheduler.encode} extras; counterexamples are replayed
    from a compact edge table (parent index, move code, ghost choices)
    instead of per-node traces, so frontier memory is O(1) per node for
    every engine.

    Determinism contract: for a fixed spec the loop visits nodes, counts
    states/transitions, and reports verdicts identically run over run.
    {!run_parallel} agrees with {!run} on the verdict and the state count
    for any [domains], and its own (verdict, states, transitions) triple
    is independent of [domains] (see its doc for the argument); the engine
    regression tests pin the (verdict, states, transitions) triples to
    their pre-refactor values. *)

module Config = P_semantics.Config
module Step = P_semantics.Step
module Mid = P_semantics.Mid
module Trace = P_semantics.Trace
module Errors = P_semantics.Errors
module Symtab = P_static.Symtab

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

(** Stack discipline on sends and creations: [Causal] pushes the receiver
    on top (the paper's scheduler — it runs next); [Round_robin] appends
    it at the bottom, the baseline delaying scheduler of Emmi et al. *)
type discipline = Causal | Round_robin

let rotate stack =
  match stack with
  | [] | [ _ ] -> stack
  | top :: rest -> rest @ [ top ]

let rec rotate_k stack k = if k <= 0 then stack else rotate_k (rotate stack) (k - 1)

(* Stack update shared by search, replay, and the d=0 equivalence argument. *)
let apply_outcome ?(discipline = Causal) stack outcome =
  let insert id stack =
    match discipline with Causal -> id :: stack | Round_robin -> stack @ [ id ]
  in
  match (outcome : Step.outcome) with
  | Step.Progress (config, Step.Sent { target; _ }) ->
    let stack =
      if List.exists (Mid.equal target) stack then stack else insert target stack
    in
    Some (config, stack)
  | Step.Progress (config, Step.Created id) -> Some (config, insert id stack)
  | Step.Blocked config | Step.Terminated config ->
    Some (config, match stack with [] -> [] | _ :: rest -> rest)
  | Step.Failed _ | Step.Need_more_choices -> None

type 'sched scheduler = {
  init : Mid.t -> 'sched;
  moves :
    Symtab.t -> Config.t -> 'sched -> budget_left:int ->
    (int * 'sched * Mid.t * int) list;
      (** candidate moves in deterministic order, each as [(code,
          scheduler-state positioned at the move, machine to run, budget
          cost)]; [code] is what the edge table stores *)
  decode : 'sched -> int -> ('sched * Mid.t) option;
      (** re-position a recorded move code during replay *)
  apply : 'sched -> Step.outcome -> (Config.t * 'sched) option;
      (** advance past a non-failing outcome; [None] on failure *)
  encode : 'sched -> int list;  (** scheduler part of the state key *)
}

let full_nondet : unit scheduler =
  { init = (fun _ -> ());
    moves =
      (fun tab config () ~budget_left:_ ->
        List.map (fun mid -> (Mid.to_int mid, (), mid, 1)) (Step.enabled tab config));
    decode = (fun () code -> Some ((), Mid.of_int code));
    apply = (fun () outcome -> Option.map (fun c -> (c, ())) (Step.outcome_config outcome));
    encode = (fun () -> []) }

let stack_sched discipline : Mid.t list scheduler =
  { init = (fun id0 -> [ id0 ]);
    moves =
      (fun _tab _config stack ~budget_left ->
        let width = List.length stack in
        let max_rot = if width <= 1 then 0 else min budget_left (width - 1) in
        let rec go k acc =
          if k > max_rot then List.rev acc
          else
            match rotate_k stack k with
            | [] -> List.rev acc
            | top :: _ as s -> go (k + 1) ((k, s, top, k) :: acc)
        in
        go 0 []);
    decode =
      (fun stack k ->
        match rotate_k stack k with [] -> None | top :: _ as s -> Some (s, top));
    apply = (fun stack outcome -> apply_outcome ~discipline stack outcome);
    encode = (fun stack -> List.map Mid.to_int stack) }

let random_pick draw : unit scheduler =
  { full_nondet with
    moves =
      (fun tab config () ~budget_left:_ ->
        match Step.enabled tab config with
        | [] -> []
        | enabled ->
          let mid = List.nth enabled (draw (List.length enabled)) in
          [ (Mid.to_int mid, (), mid, 1) ]) }

(* ------------------------------------------------------------------ *)
(* Specs, observers                                                    *)
(* ------------------------------------------------------------------ *)

type resolver = Exhaustive | Sampled of (unit -> bool)
type frontier = Bfs | Dfs

type edge_dst =
  | Dst_new of int  (** first visit; the state was just assigned this index *)
  | Dst_seen of int  (** the seen set already held this state *)
  | Dst_failed of Errors.t  (** the block reached an error configuration *)

type observer = {
  on_state : int -> Config.t -> unit;
      (** a state enters the seen set, with its dense index (root is 0) *)
  on_edge :
    src:int -> src_config:Config.t -> by:Mid.t -> resolved:Search.resolved ->
    dst:edge_dst -> unit;
      (** every explored transition, including duplicates and failures *)
}

type 'sched spec = {
  scheduler : 'sched scheduler;
  bound : int;  (** the budget: delays, depth, or walk blocks *)
  truncate_on_exhaust : bool;
      (** pop-time check: a node with [spent >= bound] marks the stats
          truncated instead of expanding (depth bounding, walk budgets);
          when false the budget only limits [moves] (delay bounding) *)
  frontier : frontier;
  resolver : resolver;
  track_seen : bool;  (** false = no fingerprints, no dedup (random walk) *)
  dedup : bool;  (** the ⊕ queue append, forwarded to [run_atomic] *)
  stop_on_error : bool;
      (** raise at the first failure (with a replayed trace) vs record the
          edge and keep exploring (graph construction) *)
  max_states : int;
  max_depth : int;
  fp_mode : Fingerprint.mode;
  store : State_store.kind;  (** seen-set representation (default exact) *)
  store_capacity : int option;
      (** compact arena slot override; [None] sizes from [max_states] *)
  reduce : Reduce.t;
      (** state-space reduction: sleep-set POR (default {!Reduce.none},
          which reproduces the unreduced engine byte for byte) *)
  faults : P_semantics.Fault.plan option;
      (** deterministic fault injection, forwarded to [run_atomic];
          [None] (the default) reproduces the fault-free engine byte for
          byte. Incompatible with sleep-set POR (see {!spec}). *)
}

let spec ?(bound = max_int) ?(truncate_on_exhaust = false) ?(frontier = Bfs)
    ?(resolver = Exhaustive) ?(track_seen = true) ?(dedup = true)
    ?(stop_on_error = true) ?(max_states = 1_000_000) ?(max_depth = max_int)
    ?(fp_mode = Fingerprint.Incremental) ?(store = State_store.Exact)
    ?store_capacity ?(reduce = Reduce.none) ?faults scheduler =
  (* an all-zero plan is exactly faults-off; normalizing here keeps the
     byte-for-byte compatibility guard trivially true *)
  let faults =
    match faults with
    | Some p when P_semantics.Fault.is_none p -> None
    | f -> f
  in
  (* Sleep-set POR argues two commuting blocks reach the same state in
     either order; with faults on, each block's fault decisions depend on
     the fault indices consumed before it, so swapping two blocks changes
     which faults fire and the orders no longer commute. *)
  if faults <> None && reduce.Reduce.por then
    invalid_arg
      "Engine.spec: sleep-set POR is unsound under fault injection \
       (fault-index consumption breaks commutativity); use --reduce none";
  { scheduler;
    bound;
    truncate_on_exhaust;
    frontier;
    resolver;
    track_seen;
    dedup;
    stop_on_error;
    max_states;
    max_depth;
    fp_mode;
    store;
    store_capacity;
    reduce;
    faults }

(* ------------------------------------------------------------------ *)
(* The core                                                            *)
(* ------------------------------------------------------------------ *)

type 'sched node = {
  config : Config.t;
  sched : 'sched;
  spent : int;
  depth : int;
  idx : int;  (** edge-table index, for replay *)
  sidx : int;  (** dense state index, for observers *)
}

(* Edge bookkeeping for counterexample replay: to reach node [idx], decode
   [move] against the parent's scheduler state and run the resulting
   machine with [choices]. *)
type edge = { parent : int; move : int; choices : bool list }

type 'sched t = {
  tab : Symtab.t;
  spec : 'sched spec;
  seen : State_store.t option;  (* None iff [track_seen] is off *)
  edges : edge option Dynarray.t;  (* indexed by node idx; None for the root *)
  stats : Search.stats;
  meters : Search.meters option;
  ticker : Search.ticker;
  observer : observer option;
}

(* A successor produced by expansion, not yet integrated (the same shape
   the parallel driver ships from its workers). The state key is either
   [s_digest] (exact store) or [s_fp] (compact store) — never both. *)
type 'sched successor = {
  s_digest : string;  (* "" when failed, keyed by [s_fp], or seen set off *)
  s_fp : int;  (* 63-bit fingerprint; 0 when keyed by [s_digest] *)
  s_resolved : Search.resolved;
  s_by : Mid.t;
  s_next : (Config.t * 'sched) option;  (* None = the edge fails *)
  s_spent : int;
  s_depth : int;
  s_parent_idx : int;
  s_parent_sidx : int;
  s_parent_config : Config.t;
  s_move : int;
}

let resolve ?on_overflow spec tab config mid : Search.resolved list =
  match spec.resolver with
  | Exhaustive ->
    Search.resolutions ~dedup:spec.dedup ?faults:spec.faults ?on_overflow tab
      config mid
  | Sampled draw ->
    (* one sampled resolution; draw order matches the historical walker:
       one boolean per Need_more_choices re-run, appended at the end *)
    let rec go rev_choices =
      let choices = List.rev rev_choices in
      match
        Step.run_atomic ~dedup:spec.dedup ?faults:spec.faults tab config mid
          ~choices
      with
      | Step.Need_more_choices, _ -> go (draw () :: rev_choices)
      | outcome, items -> { Search.choices; outcome; items }
    in
    [ go [] ]

(* The state key of (config, sched) under the spec's store. *)
let state_key (spec : 'sched spec) fp config sched =
  let extras = spec.scheduler.encode sched in
  if spec.store = State_store.Exact then (Fingerprint.digest fp config extras, 0)
  else ("", Fingerprint.digest_int fp config extras)

(* Expand one node into raw successors. Pure apart from the fingerprint
   cache and the optional per-resolution counter, both of which are
   worker-local under [run_parallel]. [on_prune] reports how many enabled
   moves sleep-set reduction suppressed at this node.

   Sleep-set POR works parent-side: every move is executed (the
   footprints need the resolutions), and a move whose footprint is
   disjoint from an earlier surviving move's — they commute, whichever
   order they run in — is dropped together with its successors, so a
   pruned successor is never keyed and never claimed in the store. The
   scheduler orders moves cheapest-first, so the surviving move of each
   commuting pair is the one that spends no more budget than the pruned
   one. Pruning depends only on the node's (config, sched) — the state
   key — so expansion stays a pure function of the key and the parallel
   engine's determinism contract holds under reduction. Failing moves are
   never pruned and never prune ([Reduce.independent] rejects them), so
   every error edge of the reduced graph is an error edge of the full
   one. *)
let expand ?expansions ?on_overflow ?on_prune ~fp (t : 'sched t)
    (node : 'sched node) : 'sched successor list =
  let budget_left = t.spec.bound - node.spent in
  let moves = t.spec.scheduler.moves t.tab node.config node.sched ~budget_left in
  let resolved =
    Array.of_list
      (List.map
         (fun ((_, _, mid, _) as mv) ->
           (mv, resolve ?on_overflow t.spec t.tab node.config mid))
         moves)
  in
  let pruned =
    if not t.spec.reduce.Reduce.por then [||]
    else begin
      let fprints =
        Array.map (fun ((_, _, mid, _), rs) -> Reduce.footprint mid rs) resolved
      in
      let n = Array.length fprints in
      let pruned = Array.make n false in
      let n_pruned = ref 0 in
      for j = 1 to n - 1 do
        let covered = ref false in
        for i = 0 to j - 1 do
          if
            (not !covered) && (not pruned.(i))
            && Reduce.independent fprints.(i) fprints.(j)
          then covered := true
        done;
        if !covered then begin
          pruned.(j) <- true;
          incr n_pruned
        end
      done;
      (match on_prune with
      | Some f when !n_pruned > 0 -> f !n_pruned
      | _ -> ());
      pruned
    end
  in
  List.concat
    (List.mapi
       (fun i ((code, sched_m, mid, cost), rs) ->
         if Array.length pruned > 0 && pruned.(i) then []
         else
           List.filter_map
             (fun (r : Search.resolved) ->
               (match expansions with
               | None -> ()
               | Some c -> P_obs.Metrics.incr c);
               let mk ?(s_fp = 0) s_digest s_next =
                 { s_digest;
                   s_fp;
                   s_resolved = r;
                   s_by = mid;
                   s_next;
                   s_spent = node.spent + cost;
                   s_depth = node.depth + 1;
                   s_parent_idx = node.idx;
                   s_parent_sidx = node.sidx;
                   s_parent_config = node.config;
                   s_move = code }
               in
               match r.outcome with
               | Step.Failed _ -> Some (mk "" None)
               | Step.Need_more_choices -> assert false
               | outcome -> (
                 match t.spec.scheduler.apply sched_m outcome with
                 | None -> None
                 | Some ((config', sched') as next) -> (
                   match fp with
                   | None -> Some (mk "" (Some next))
                   | Some fp ->
                     let digest, fpi = state_key t.spec fp config' sched' in
                     if t.spec.store = State_store.Exact then
                       Some (mk digest (Some next))
                     else Some (mk ~s_fp:fpi "" (Some next)))))
             rs)
       (Array.to_list resolved))

(* Replay the edge chain leading to edge-table index [idx] to rebuild the
   trace from the initial configuration, along with the
   scheduler-independent schedule — per block, the machine that ran and
   the ghost choices it consumed — that {!Replay} and the on-disk trace
   artifact re-execute. *)
let replay (t : 'sched t) idx : Trace.t * (Mid.t * bool list) list =
  let rec chain idx acc =
    match Dynarray.get t.edges idx with
    | None -> acc
    | Some e -> chain e.parent (e :: acc)
  in
  let path = chain idx [] in
  let config0, id0, items0 = Step.initial_config t.tab in
  let rec follow config sched items sched_rev = function
    | [] -> (items, List.rev sched_rev)
    | (e : edge) :: rest -> (
      match t.spec.scheduler.decode sched e.move with
      | None -> (items, List.rev sched_rev) (* cannot happen on a recorded path *)
      | Some (sched_m, mid) -> (
        let outcome, new_items =
          Step.run_atomic ~dedup:t.spec.dedup ?faults:t.spec.faults t.tab config
            mid ~choices:e.choices
        in
        let items = items @ new_items in
        let sched_rev = (mid, e.choices) :: sched_rev in
        match t.spec.scheduler.apply sched_m outcome with
        | Some (config, sched) -> follow config sched items sched_rev rest
        | None -> (items, List.rev sched_rev) (* the final, failing edge *)))
  in
  follow config0 (t.spec.scheduler.init id0) items0 [] path

exception Found of Search.counterexample

let observe_edge t (s : 'sched successor) dst =
  match t.observer with
  | None -> ()
  | Some o ->
    o.on_edge ~src:s.s_parent_sidx ~src_config:s.s_parent_config ~by:s.s_by
      ~resolved:s.s_resolved ~dst

(* Injected faults that fired during one resolved block. *)
let count_faults items =
  List.fold_left
    (fun acc it -> match it with Trace.Faulted _ -> acc + 1 | _ -> acc)
    0 items

(* Merge one successor into the seen set / frontier. Sequential also under
   [run_parallel], which keeps both drivers deterministic. *)
let integrate (t : 'sched t) ~push (s : 'sched successor) =
  t.stats.transitions <- t.stats.transitions + 1;
  if t.spec.faults <> None then
    t.stats.faults <- t.stats.faults + count_faults s.s_resolved.items;
  (match t.meters with
  | None -> ()
  | Some m -> P_obs.Metrics.incr m.Search.m_transitions);
  Search.tick t.ticker;
  match s.s_next with
  | None ->
    let error =
      match s.s_resolved.outcome with Step.Failed e -> e | _ -> assert false
    in
    if t.spec.stop_on_error then begin
      let idx = Dynarray.length t.edges in
      Dynarray.add_last t.edges
        (Some { parent = s.s_parent_idx; move = s.s_move; choices = s.s_resolved.choices });
      let trace, schedule = replay t idx in
      raise (Found { Search.error; trace; depth = s.s_depth; schedule })
    end
    else observe_edge t s (Dst_failed error)
  | Some (config', sched') ->
    let record_new () =
      let sidx = t.stats.states in
      t.stats.states <- t.stats.states + 1;
      (match t.meters with
      | None -> ()
      | Some m ->
        P_obs.Metrics.incr m.Search.m_states;
        P_obs.Metrics.set_max m.Search.m_queue_hwm
          (Search.queue_hwm_of_config config'));
      (match t.observer with None -> () | Some o -> o.on_state sidx config');
      sidx
    in
    let enqueue sidx =
      let idx = Dynarray.length t.edges in
      Dynarray.add_last t.edges
        (Some { parent = s.s_parent_idx; move = s.s_move; choices = s.s_resolved.choices });
      if s.s_depth > t.stats.max_depth then t.stats.max_depth <- s.s_depth;
      push
        { config = config';
          sched = sched';
          spent = s.s_spent;
          depth = s.s_depth;
          idx;
          sidx }
    in
    if not t.spec.track_seen then begin
      let sidx = record_new () in
      observe_edge t s (Dst_new sidx);
      enqueue sidx
    end
    else begin
      (* one merge decision, one observation point: whatever the store
         answers, exactly one [observe_edge] fires for this transition *)
      let dst, expand_as =
        match
          State_store.claim (Option.get t.seen) ~worker:0 ~digest:s.s_digest
            ~fp:s.s_fp ~spent:s.s_spent ~new_sidx:t.stats.states
        with
        | State_store.New ->
          let sidx = record_new () in
          (Dst_new sidx, Some sidx)
        | State_store.Dup sidx ->
          (match t.meters with
          | None -> ()
          | Some m -> P_obs.Metrics.incr m.Search.m_dedup_hits);
          (Dst_seen sidx, None)
        | State_store.Reexpand sidx ->
          (* reached again with strictly smaller budget spent: the spare
             budget can reach new successors, so re-expand *)
          (Dst_seen sidx, Some sidx)
        | State_store.Dropped ->
          (* the fixed-capacity store is full: the state is unexplorable,
             exactly like exhausting [max_states] *)
          t.stats.truncated <- true;
          (Dst_seen (-1), None)
      in
      observe_edge t s dst;
      match expand_as with None -> () | Some sidx -> enqueue sidx
    end

(* Guard shared by both drivers: budgets past the compact store's 15-bit
   spent field would break the min-spent merge rule silently. *)
let check_store_spec (spec : 'sched spec) =
  if spec.store = State_store.Compact && spec.bound > State_store.max_exact_spent then
    invalid_arg
      (Printf.sprintf
         "Engine: the compact store tracks budgets up to %d (bound %d given); \
          use --store exact"
         State_store.max_exact_spent spec.bound)

let make_store ?observer ~workers ~profile (spec : 'sched spec) =
  if not spec.track_seen then None
  else
    Some
      (State_store.create ?capacity:spec.store_capacity
         ~need_sidx:(observer <> None && spec.store = State_store.Compact)
         ~profile ~kind:spec.store ~workers ~max_states:spec.max_states ())

(* The root's key under whichever store the spec picked. *)
let root_key (spec : 'sched spec) fp config0 sched0 =
  state_key spec fp config0 sched0

(* Shared prologue: context, root node, root bookkeeping. *)
let init_run ?observer ~instr ~engine (spec : 'sched spec) tab ~fp =
  check_store_spec spec;
  let stats = Search.new_stats () in
  let t =
    { tab;
      spec;
      seen = make_store ?observer ~workers:1 ~profile:P_obs.Profile.null spec;
      edges = Dynarray.create ();
      stats;
      meters = Search.meters ~engine instr;
      ticker = Search.ticker instr;
      observer }
  in
  let config0, id0, _ = Step.initial_config tab in
  let sched0 = spec.scheduler.init id0 in
  Dynarray.add_last t.edges None;
  let root =
    { config = config0;
      sched = sched0;
      spent = 0;
      depth = 0;
      idx = 0;
      sidx = 0 }
  in
  if spec.track_seen then begin
    let digest, fpi = root_key spec (Option.get fp) config0 sched0 in
    ignore
      (State_store.claim (Option.get t.seen) ~worker:0 ~digest ~fp:fpi ~spent:0
         ~new_sidx:0)
  end;
  stats.states <- 1;
  (match t.meters with
  | None -> ()
  | Some m ->
    P_obs.Metrics.incr m.Search.m_states;
    P_obs.Metrics.set_max m.Search.m_queue_hwm (Search.queue_hwm_of_config config0));
  (match observer with None -> () | Some o -> o.on_state 0 config0);
  (t, root)

let flush_fp_meters (t : 'sched t) fps =
  match t.meters with
  | None -> ()
  | Some m ->
    List.iter
      (fun fp ->
        let add c n = if n > 0 then P_obs.Metrics.add c n in
        add m.Search.m_fp_requests (Fingerprint.requests fp);
        add m.Search.m_fp_hits (Fingerprint.hits fp);
        add m.Search.m_fp_misses (Fingerprint.misses fp);
        add m.Search.m_fp_collisions (Fingerprint.collisions fp))
      fps

(** Run a spec to completion on the current domain. *)
let run ?(instr = Search.no_instr) ?observer ?(span_args = []) ~engine
    (spec : 'sched spec) (tab : Symtab.t) : Search.result =
  let fp =
    if spec.track_seen then Some (Fingerprint.create ~mode:spec.fp_mode tab)
    else None
  in
  let started = P_obs.Mclock.start () in
  let t0_us = P_obs.Mclock.now_us () in
  let t, root = init_run ?observer ~instr ~engine spec tab ~fp in
  let finish verdict =
    t.stats.elapsed_s <- P_obs.Mclock.elapsed_s started;
    (match t.seen with
    | None -> ()
    | Some st -> t.stats.store <- Some (State_store.summary st));
    flush_fp_meters t (Option.to_list fp);
    Search.emit_run_span instr ~engine ~t0_us ~stats:t.stats span_args;
    { Search.verdict; stats = t.stats }
  in
  let queue = Queue.create () in
  let dfs_stack = ref [] in
  let push n =
    match spec.frontier with Bfs -> Queue.add n queue | Dfs -> dfs_stack := n :: !dfs_stack
  in
  let is_empty () =
    match spec.frontier with Bfs -> Queue.is_empty queue | Dfs -> !dfs_stack = []
  in
  let pop () =
    match spec.frontier with
    | Bfs -> Queue.pop queue
    | Dfs -> (
      match !dfs_stack with
      | [] -> raise Queue.Empty
      | n :: rest ->
        dfs_stack := rest;
        n)
  in
  let clear () =
    Queue.clear queue;
    dfs_stack := []
  in
  let frontier_len () =
    match spec.frontier with Bfs -> Queue.length queue | Dfs -> List.length !dfs_stack
  in
  P_obs.Profile.register_worker instr.Search.profile ~worker:0;
  P_obs.Telemetry.set_meta instr.Search.telemetry
    [ ("store", P_obs.Json.String (State_store.kind_to_string spec.store)) ];
  P_obs.Telemetry.set_probe instr.Search.telemetry (fun () ->
      { P_obs.Telemetry.states = t.stats.states;
        transitions = t.stats.transitions;
        frontier = float_of_int (frontier_len ());
        steals = 0;
        steal_attempts = 0;
        store_bytes =
          (match t.seen with
          | None -> 0
          | Some st -> State_store.live_bytes st);
        shed = 0 });
  push root;
  try
    while not (is_empty ()) do
      if t.stats.states >= spec.max_states then begin
        t.stats.truncated <- true;
        clear ()
      end
      else begin
        (match t.meters with
        | None -> ()
        | Some m ->
          P_obs.Metrics.set_max m.Search.m_frontier (float_of_int (frontier_len ())));
        let node = pop () in
        if node.depth >= spec.max_depth then t.stats.truncated <- true
        else if spec.truncate_on_exhaust && node.spent >= spec.bound then
          t.stats.truncated <- true
        else begin
          (* one [Expand] span per node; a [Found] raise loses only the
             final span, never the aggregate totals of completed ones *)
          let pt0 = P_obs.Profile.start instr.Search.profile in
          List.iter (integrate t ~push)
            (expand
               ~on_overflow:(fun () -> t.stats.truncated <- true)
               ~on_prune:(fun k -> t.stats.pruned <- t.stats.pruned + k)
               ~fp t node);
          P_obs.Profile.record instr.Search.profile ~worker:0 P_obs.Profile.Expand
            ~t0:pt0
        end
      end
    done;
    finish Search.No_error
  with Found ce -> finish (Search.Error_found ce)

(* ------------------------------------------------------------------ *)
(* Work-stealing parallel driver                                       *)
(* ------------------------------------------------------------------ *)

(* A reusable two-phase barrier: generation-counted so the same barrier
   separates every stratum. [parties = 1] degenerates to a no-op, which is
   how [run_parallel ~domains:1] runs the identical code path. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable waiting : int;
    mutable generation : int;
  }

  let make parties =
    { lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      waiting = 0;
      generation = 0 }

  let await b =
    Mutex.lock b.lock;
    let gen = b.generation in
    b.waiting <- b.waiting + 1;
    if b.waiting = b.parties then begin
      b.waiting <- 0;
      b.generation <- gen + 1;
      Condition.broadcast b.cond
    end
    else
      while b.generation = gen do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

(** Run a spec as a work-stealing parallel search: [domains] workers, each
    owning a Chase–Lev deque ({!Ws_deque}) of nodes, stealing from each
    other when their own deque drains, over a shared {!State_store} (the
    exact store shards itself behind mutexes; the compact store arbitrates
    claims with lock-free CAS on its off-heap arena).

    The search is *stratified by budget spent*: zero-cost successors stay
    in the current stratum (pushed on the discovering worker's deque);
    positive-cost successors are buffered per worker and only claimed
    against the seen set when their stratum starts, after a barrier. With
    strata processed in ascending spent order, every state is claimed and
    expanded exactly once, at its minimal spent (the min-spent re-expand
    rule of {!integrate} can never fire), so the (states, transitions)
    totals are independent of [domains] and of steal order — a constant
    three barriers per stratum (buckets seeded / stratum drained / next
    stratum chosen), at most [bound + 1] strata, where the
    level-synchronous predecessor of this driver paid one barrier per BFS
    level.

    On the first failing edge every worker stops and the counterexample is
    re-derived by the sequential {!run} on the same spec, making the
    reported (verdict, states, transitions, counterexample) byte-identical
    to the sequential engine's — the deterministic tiebreak (sequential
    discovery order = lowest dense state index), not arrival order. This
    is sound because a worker only explores states the sequential engine
    also reaches, and monotone budgets mean the sequential run finds an
    error whenever any parallel worker did. Because the sequential claim
    order differs, a capped rerun that misses the observed error is
    retried without [max_states] rather than reporting [No_error].

    [max_states] is charged against a shared atomic only when a claim
    discovers a new state — as in the sequential loop, a run completes iff
    it discovers strictly fewer than [max_states] states — so a truncated
    run's counts may vary with [domains]; non-truncated runs are exactly
    deterministic. [spec.frontier] must be [Bfs]; observers are not
    supported. *)
let run_parallel ?(instr = Search.no_instr) ?(span_args = []) ~engine ~domains
    (spec : 'sched spec) (tab : Symtab.t) : Search.result =
  if spec.frontier <> Bfs then
    invalid_arg "Engine.run_parallel: frontier must be Bfs";
  if not spec.track_seen then
    (* without a seen set there is nothing to share; the sequential loop is
       the same search *)
    run ~instr ~span_args ~engine spec tab
  else begin
    check_store_spec spec;
    let n = max 1 domains in
    let started = P_obs.Mclock.start () in
    let t0_us = P_obs.Mclock.now_us () in
    (* per-worker fingerprint contexts, persistent across strata; digests
       are canonical, so separate caches yield identical keys *)
    let fps = Array.init n (fun _ -> Fingerprint.create ~mode:spec.fp_mode tab) in
    let counter name =
      match instr.Search.metrics with
      | None -> None
      | Some reg ->
        Some (P_obs.Metrics.counter reg ~labels:[ ("engine", engine) ] name)
    in
    let expansions = counter "checker.expansions" in
    let m_steals = counter "checker.steals" in
    let m_steal_attempts = counter "checker.steal_attempts" in
    let m_steal_retries = counter "checker.steal_retries" in
    let m_contention = counter "checker.shard_contention" in
    let m_cas_retries = counter "checker.store_cas_retries" in
    let prof = instr.Search.profile in
    let stats = Search.new_stats () in
    (* ---- shared state ---- *)
    let store =
      Option.get (make_store ~workers:n ~profile:prof spec)
      (* track_seen holds on this branch *)
    in
    let t =
      { tab;
        spec;
        seen = Some store;
        edges = Dynarray.create ();
        stats;
        meters = Search.meters ~engine instr;
        ticker = Search.ticker instr;
        observer = None;
        }
    in
    let states = Atomic.make 0 in
    let pending = Atomic.make 0 in
    (* stop = abandon the search (error found or max_states hit) *)
    let stop = Atomic.make false in
    let error_found = Atomic.make false in
    let truncated = Atomic.make false in
    let deques = Array.init n (fun _ -> Ws_deque.create ()) in
    (* future-stratum nodes, buffered per worker: spent -> (key, node) *)
    let buckets : (int, (string * int * 'sched node) list) Hashtbl.t array =
      Array.init n (fun _ -> Hashtbl.create 8)
    in
    (* written by worker 0 between the two barrier phases, read by all
       after the second: the barrier's mutex publishes them *)
    let continue_ = ref true in
    let cur_stratum = ref 0 in
    let barrier = Barrier.make n in
    (* per-worker tallies, merged after the join *)
    let w_transitions = Array.make n 0 in
    let w_faults = Array.make n 0 in
    let w_pruned = Array.make n 0 in
    let w_dedup = Array.make n 0 in
    let w_maxdepth = Array.make n 0 in
    let w_qhwm = Array.make n 0.0 in
    let w_steals = Array.make n 0 in
    let w_steal_attempts = Array.make n 0 in
    let w_steal_retries = Array.make n 0 in
    (* pre-allocated per worker so the steal loop passes a closure without
       allocating one per attempt *)
    let on_retry =
      Array.init n (fun w () -> w_steal_retries.(w) <- w_steal_retries.(w) + 1)
    in
    (* live totals for the telemetry sampler: racy plain reads of the
       per-worker tallies, memory-safe and monotonically slightly stale *)
    P_obs.Telemetry.set_meta instr.Search.telemetry
      [ ("store", P_obs.Json.String (State_store.kind_to_string spec.store)) ];
    P_obs.Telemetry.set_probe instr.Search.telemetry (fun () ->
        { P_obs.Telemetry.states = Atomic.get states;
          transitions = Array.fold_left ( + ) 0 w_transitions;
          frontier = float_of_int (Atomic.get pending);
          steals = Array.fold_left ( + ) 0 w_steals;
          steal_attempts = Array.fold_left ( + ) 0 w_steal_attempts;
          store_bytes = State_store.live_bytes store;
          shed = 0 });
    let bucket_add w spent entry =
      let b = buckets.(w) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt b spent) in
      Hashtbl.replace b spent (entry :: prev)
    in
    (* Claim a node for expansion in the current stratum; true = enqueued.
       The claim is the store's — CAS-arbitrated (compact) or shard-locked
       (exact), either way exactly one winner per state. [New] claims
       happen exactly once per state; because strata are processed in
       ascending spent order, the first claim of a state is already at its
       minimal spent and [Reexpand] is unreachable (kept for safety).
       The state budget is charged only on [New] claims, mirroring the
       sequential loop (which completes iff it discovers strictly fewer
       than [max_states] states): duplicate successors arriving at the
       boundary must not flag a completed run as truncated. The state
       that reaches the budget is counted but never expanded, exactly as
       the sequential engine counts it and then clears the frontier. *)
    let claim_now w digest fp (node : 'sched node) =
      match
        State_store.claim store ~worker:w ~digest ~fp ~spent:node.spent
          ~new_sidx:0
      with
      | State_store.Dup _ ->
        w_dedup.(w) <- w_dedup.(w) + 1;
        false
      | State_store.Dropped ->
        (* the store's arena is full: like exhausting [max_states] *)
        Atomic.set truncated true;
        Atomic.set stop true;
        false
      | (State_store.New | State_store.Reexpand _) as d ->
        let over_budget =
          d = State_store.New
          && begin
               let s = 1 + Atomic.fetch_and_add states 1 in
               (match t.meters with
               | None -> ()
               | Some _ ->
                 let q = Search.queue_hwm_of_config node.config in
                 if q > w_qhwm.(w) then w_qhwm.(w) <- q);
               s >= spec.max_states
             end
        in
        if over_budget then begin
          Atomic.set truncated true;
          Atomic.set stop true;
          false
        end
        else begin
          if node.depth > w_maxdepth.(w) then w_maxdepth.(w) <- node.depth;
          Atomic.incr pending;
          Ws_deque.push deques.(w) node;
          true
        end
    in
    let process w (node : 'sched node) =
      if node.depth >= spec.max_depth then Atomic.set truncated true
      else if spec.truncate_on_exhaust && node.spent >= spec.bound then
        Atomic.set truncated true
      else
        List.iter
          (fun (s : 'sched successor) ->
            w_transitions.(w) <- w_transitions.(w) + 1;
            if spec.faults <> None then
              w_faults.(w) <- w_faults.(w) + count_faults s.s_resolved.items;
            match s.s_next with
            | None ->
              (* a failing edge; [stop_on_error = false] graph builds are
                 not driven through this engine (observers unsupported), so
                 the edge only counts as a transition in that case *)
              if spec.stop_on_error then begin
                Atomic.set error_found true;
                Atomic.set stop true
              end
            | Some (config', sched') ->
              let node' =
                { config = config';
                  sched = sched';
                  spent = s.s_spent;
                  depth = s.s_depth;
                  idx = 0;
                  sidx = 0 }
              in
              if s.s_spent = node.spent then
                ignore (claim_now w s.s_digest s.s_fp node')
              else
                (* claimed when its stratum is seeded: claiming here would
                   race discoveries at smaller spent and make the expansion
                   count depend on arrival order *)
                bucket_add w s.s_spent (s.s_digest, s.s_fp, node'))
          (expand ?expansions
             ~on_overflow:(fun () -> Atomic.set truncated true)
             ~on_prune:(fun k -> w_pruned.(w) <- w_pruned.(w) + k)
             ~fp:(Some fps.(w)) t node)
    in
    let steal_from w =
      let rec go k =
        if k >= n - 1 then None
        else begin
          let v = (w + 1 + k) mod n in
          w_steal_attempts.(w) <- w_steal_attempts.(w) + 1;
          match Ws_deque.steal ~on_retry:on_retry.(w) deques.(v) with
          | Some _ as r ->
            w_steals.(w) <- w_steals.(w) + 1;
            r
          | None -> go (k + 1)
        end
      in
      go 0
    in
    (* worker 0 pokes the telemetry sampler and the GC cursor, directly
       rather than through the ticker's own count gate: this point already
       fires only once per [tick_every] pops, and both calls are further
       time-gated internally *)
    let tick_every = 1024 in
    let ticked = ref 0 in
    let tick w =
      if w = 0 then begin
        incr ticked;
        if !ticked >= tick_every then begin
          ticked := 0;
          P_obs.Telemetry.tick instr.Search.telemetry;
          P_obs.Profile.poll_gc prof
        end
      end
    in
    let expand_profiled w node =
      let pt0 = P_obs.Profile.start prof in
      process w node;
      P_obs.Profile.record prof ~worker:w P_obs.Profile.Expand ~t0:pt0
    in
    let rec work w =
      if Atomic.get stop then ()
      else
        match Ws_deque.pop deques.(w) with
        | Some node ->
          expand_profiled w node;
          Atomic.decr pending;
          tick w;
          work w
        | None ->
          if Atomic.get pending = 0 then ()
          else begin
            let pt0 = P_obs.Profile.start prof in
            let stolen = steal_from w in
            P_obs.Profile.record prof ~worker:w P_obs.Profile.Steal ~t0:pt0;
            match stolen with
            | Some node ->
              expand_profiled w node;
              Atomic.decr pending;
              tick w;
              work w
            | None ->
              Domain.cpu_relax ();
              work w
          end
    in
    (* seed this worker's buffered nodes for stratum [snum] *)
    let seed w snum =
      match Hashtbl.find_opt buckets.(w) snum with
      | None -> ()
      | Some entries ->
        Hashtbl.remove buckets.(w) snum;
        List.iter
          (fun (digest, fp, node) ->
            if not (Atomic.get stop) then ignore (claim_now w digest fp node))
          entries
    in
    let await_profiled w =
      let pt0 = P_obs.Profile.start prof in
      Barrier.await barrier;
      P_obs.Profile.record prof ~worker:w P_obs.Profile.Barrier_wait ~t0:pt0
    in
    let rec strata w =
      seed w !cur_stratum;
      (* every bucket is seeded (and [pending] fully incremented) before
         any worker can enter [work]: otherwise a worker with an empty
         bucket could observe [pending = 0], park for the stratum, and
         leave its peers' freshly seeded nodes to fewer domains *)
      await_profiled w;
      work w;
      await_profiled w;
      (* quiescent window: every worker is between the two barriers *)
      if w = 0 then
        if Atomic.get stop then continue_ := false
        else begin
          Atomic.set pending 0;
          let next =
            Array.fold_left
              (fun acc b ->
                Hashtbl.fold
                  (fun k _ acc ->
                    match acc with Some m when m <= k -> acc | _ -> Some k)
                  b acc)
              None buckets
          in
          match next with
          | None -> continue_ := false
          | Some snum ->
            cur_stratum := snum;
            continue_ := true;
            (match t.meters with
            | None -> ()
            | Some m ->
              let width =
                Array.fold_left
                  (fun acc b ->
                    acc
                    + List.length
                        (Option.value ~default:[] (Hashtbl.find_opt b snum)))
                  0 buckets
              in
              P_obs.Metrics.set_max m.Search.m_frontier (float_of_int width))
        end;
      await_profiled w;
      if !continue_ then strata w
    in
    (* root: stratum 0, worker 0's bucket *)
    let config0, id0, _ = Step.initial_config tab in
    let sched0 = spec.scheduler.init id0 in
    let root_digest, root_fp = root_key spec fps.(0) config0 sched0 in
    let root =
      { config = config0;
        sched = sched0;
        spent = 0;
        depth = 0;
        idx = 0;
        sidx = 0 }
    in
    bucket_add 0 0 (root_digest, root_fp, root);
    let handles =
      List.init (n - 1) (fun i ->
          Domain.spawn (fun () ->
              P_obs.Profile.register_worker prof ~worker:(i + 1);
              strata (i + 1)))
    in
    P_obs.Profile.register_worker prof ~worker:0;
    strata 0;
    List.iter Domain.join handles;
    (* merge the per-worker tallies *)
    stats.states <- Atomic.get states;
    stats.transitions <- Array.fold_left ( + ) 0 w_transitions;
    stats.faults <- Array.fold_left ( + ) 0 w_faults;
    stats.pruned <- Array.fold_left ( + ) 0 w_pruned;
    stats.max_depth <- Array.fold_left max 0 w_maxdepth;
    stats.truncated <- Atomic.get truncated;
    stats.store <- Some (State_store.summary store);
    let flush_steals () =
      let add cm arr =
        match cm with
        | None -> ()
        | Some c ->
          let total = Array.fold_left ( + ) 0 arr in
          if total > 0 then P_obs.Metrics.add c total
      in
      add m_steals w_steals;
      add m_steal_attempts w_steal_attempts;
      add m_steal_retries w_steal_retries;
      (* claim-arbitration diagnostics come from the store: blocked shard
         locks for exact, lost CAS races for compact *)
      let add_n cm v =
        match cm with
        | None -> ()
        | Some c -> if v > 0 then P_obs.Metrics.add c v
      in
      let sm = State_store.summary store in
      add_n m_contention sm.State_store.s_contention;
      add_n m_cas_retries sm.State_store.s_cas_retries
    in
    if Atomic.get error_found then begin
      (* Deterministic counterexample: re-derive it sequentially on the
         same spec. The result — verdict, counterexample, stats — is the
         sequential engine's, byte-identical for every [domains]; the
         parallel detection phase contributes only wall-clock, the
         fingerprint/steal diagnostics flushed here, and the
         [checker.expansions] it performed. *)
      flush_steals ();
      flush_fp_meters t (Array.to_list fps);
      let r =
        run ~instr ~engine
          ~span_args:(span_args @ [ ("rederived", P_obs.Json.Bool true) ])
          spec tab
      in
      let r =
        match r.Search.verdict with
        | Search.Error_found _ -> r
        | Search.No_error when spec.max_states < max_int ->
          (* The sequential claim order differs from the stratified
             parallel order, so the capped rerun can exhaust [max_states]
             before reaching the error the parallel search actually
             observed. That error is real (a parallel worker only expands
             states the uncapped sequential engine also reaches, at no
             larger spent), so retry without the state cap rather than
             silently discarding the counterexample behind a clean
             verdict. *)
          run ~instr ~engine
            ~span_args:
              (span_args
              @ [ ("rederived", P_obs.Json.Bool true);
                  ("uncapped", P_obs.Json.Bool true) ])
            { spec with max_states = max_int }
            tab
        | Search.No_error -> r
      in
      r.Search.stats.elapsed_s <- P_obs.Mclock.elapsed_s started;
      r
    end
    else begin
      stats.elapsed_s <- P_obs.Mclock.elapsed_s started;
      (match t.meters with
      | None -> ()
      | Some m ->
        P_obs.Metrics.add m.Search.m_states stats.states;
        P_obs.Metrics.add m.Search.m_transitions stats.transitions;
        let dedup = Array.fold_left ( + ) 0 w_dedup in
        if dedup > 0 then P_obs.Metrics.add m.Search.m_dedup_hits dedup;
        P_obs.Metrics.set_max m.Search.m_queue_hwm
          (Array.fold_left max 0.0 w_qhwm));
      flush_steals ();
      flush_fp_meters t (Array.to_list fps);
      Search.emit_run_span instr ~engine ~t0_us ~stats span_args;
      { Search.verdict = Search.No_error; stats }
    end
  end
