(** State-space reduction for the unified exploration engine: sleep-set
    partial-order reduction over the engine's scheduler choice points,
    applied parent-side. When the engine expands a state it executes every
    scheduler move; a move whose dynamic footprint (the machines its block
    ran on, sent to, spawned or deleted — {!footprint}) is disjoint from an
    earlier surviving move's commutes with it, and is pruned together with
    its successors — the covering branch reaches the commuted image of
    everything the pruned branch would have visited, one rotation later. A
    pruned successor is never keyed and never claimed in the store, so the
    reduced state set is a subset of the unreduced one. Pruning is a pure
    function of the expanded state, which keeps the work-stealing engine's
    determinism contract intact. Under a finite delay budget the covering
    schedule can cost one more delay than the pruned one, so an error
    sitting exactly at the budget boundary may move to the next bound —
    the differential suite (every example, every buggy variant, the
    quickcheck corpus) arbitrates that this never changes a verdict, with
    never more states. *)

module Mid = P_semantics.Mid
module Trace = P_semantics.Trace
module Step = P_semantics.Step

type t = { por : bool }

let none = { por = false }
let por = { por = true }

let is_none r = not r.por

let to_string r = if r.por then "por" else "none"

let of_string = function
  | "none" -> Ok none
  | "por" -> Ok por
  | s -> Error (Printf.sprintf "unknown reduction mode %S (expected none|por)" s)

let pp ppf r = Fmt.string ppf (to_string r)

let all = [ none; por ]

(* ------------------------------------------------------------------ *)
(* Dynamic footprints                                                  *)
(* ------------------------------------------------------------------ *)

(** What executing one scheduler move (all its ghost resolutions taken
    together) touched: the runner itself plus every machine it sent to,
    spawned, or deleted; whether it allocated an identifier (two spawning
    blocks conflict on the deterministic allocator); whether any
    resolution failed (error states must never be pruned or slept). *)
type footprint = { fp_mids : Mid.Set.t; fp_spawns : bool; fp_fails : bool }

let footprint (mid : Mid.t) (rs : Search.resolved list) : footprint =
  List.fold_left
    (fun acc (r : Search.resolved) ->
      let acc =
        match r.Search.outcome with
        | Step.Failed _ -> { acc with fp_fails = true }
        | Step.Progress _ | Step.Blocked _ | Step.Terminated _
        | Step.Need_more_choices -> acc
      in
      List.fold_left
        (fun acc (it : Trace.item) ->
          match it with
          | Trace.Sent { dst; _ } -> { acc with fp_mids = Mid.Set.add dst acc.fp_mids }
          | Trace.Created { created; _ } ->
            { fp_mids = Mid.Set.add created acc.fp_mids;
              fp_spawns = true;
              fp_fails = acc.fp_fails }
          | Trace.Deleted { mid = d } ->
            { acc with fp_mids = Mid.Set.add d acc.fp_mids }
          | _ -> acc)
        acc r.Search.items)
    { fp_mids = Mid.Set.singleton mid; fp_spawns = false; fp_fails = false }
    rs

(** Dynamic independence of two moves already executed from the same
    state: disjoint footprints, not both allocating, neither failing. *)
let independent a b =
  (not a.fp_fails) && (not b.fp_fails)
  && (not (a.fp_spawns && b.fp_spawns))
  && Mid.Set.disjoint a.fp_mids b.fp_mids
