(** Incremental state fingerprinting for the exploration engines' seen
    sets.

    [Incremental] memoises a
    {!Canon.machine_digest} per *physical* machine value, in the machine's
    own [digest_memo] slot — sound because every rebuilt machine enters a
    configuration through [Config.update], which resets the slot, while
    {!P_semantics.Step.run_atomic} physically shares every machine it did
    not touch — and combines the memoised per-machine digests with
    [next_id], the live count, and the scheduler extra, making a successor
    fingerprint O(machines-changed) encoding work instead of
    O(state-size). [Paranoid] also re-encodes the whole configuration
    through the reference {!Canon.digest}, returns that digest, and counts
    any break of the incremental↔reference bijection in {!collisions}.

    Within one mode, equal fingerprints mean equal states up to MD5
    collision, exactly like [Canon.digest]; fingerprints from different
    modes are not comparable. Like {!Canon.t}, a fingerprint is stateful
    and single-domain: use one per worker (digests are canonical, so
    separate instances produce identical keys). *)

type mode = Incremental | Paranoid

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type t

val create : ?mode:mode -> P_static.Symtab.t -> t
(** [create tab] builds a fingerprint context (default mode
    [Incremental]). The per-machine memo lives inside the machine values
    themselves, so separate contexts (e.g. one per parallel worker) share
    it; each context keeps its own hit/miss/collision counters. *)

val mode : t -> mode

val digest : t -> P_semantics.Config.t -> int list -> string
(** [digest t config extra]: the state key of [config] plus the scheduler
    [extra] integers, per the context's mode. *)

val digest_int : t -> P_semantics.Config.t -> int list -> int
(** A 63-bit integer fingerprint of the same state key, for the compact
    state store ({!State_store}): [Incremental] streams the memoised
    per-machine digests straight into a FNV-1a hash with no per-state
    string; [Paranoid] hashes the reference digest string (keeping its
    bijection check). Integer and string fingerprints of different modes
    are not comparable, and within a store one run uses one of the two key
    forms throughout. *)

val requests : t -> int
(** Per-machine digest lookups made through this context (incremental and
    paranoid modes). Every request is counted as exactly one of {!hits} or
    {!misses}, so [hits t + misses t = requests t] per context — and
    because the engines keep one context per worker domain and sum them,
    the identity also holds for the merged [checker.fp_*] metrics of a
    multi-domain run. *)

val hits : t -> int
(** Per-machine memo hits served so far (incremental and paranoid). Under
    the parallel engine another worker may fill a memo concurrently; a
    race only moves a request between this context's {!hits} and
    {!misses}, never out of their sum. *)

val misses : t -> int
(** Per-machine encodings that had to be computed. *)

val collisions : t -> int
(** Paranoid mode only: incremental↔reference bijection violations observed.
    Anything other than zero indicates an MD5 collision or a stale cache
    entry. *)
