(** State-space reduction for the exploration engines: sleep-set
    partial-order reduction over scheduler choice points, applied
    parent-side — a pruned move's successors are never keyed or claimed,
    so the reduced state set is a subset of the unreduced one.

    The reduction preserves the verdict kind — an error is found iff the
    unreduced search finds one (up to the delay-budget caveat documented
    in DESIGN.md) — while exploring never more states. Pruning is a pure
    function of the expanded state, so the work-stealing engine's
    determinism contract survives reduction unchanged. *)

type t = { por : bool }

val none : t
val por : t

val is_none : t -> bool
val to_string : t -> string

val of_string : string -> (t, string) result
(** Accepts [none|por]. *)

val pp : t Fmt.t

val all : t list
(** Both modes, [none] first — the differential test axis. *)

(** {2 Engine-side machinery}

    Used by {!Engine} during expansion; exposed for the tests. *)

(** The dynamic footprint of one scheduler move, over all its ghost
    resolutions: every machine the block ran on, sent to, spawned, or
    deleted; whether it allocated an identifier; whether any resolution
    failed. *)
type footprint = {
  fp_mids : P_semantics.Mid.Set.t;
  fp_spawns : bool;
  fp_fails : bool;
}

val footprint : P_semantics.Mid.t -> Search.resolved list -> footprint

val independent : footprint -> footprint -> bool
(** Disjoint footprints, not both allocating, neither failing — the two
    moves commute from this state, whichever order they run in. *)
