(** Metrics registry: named counters, gauges, and histograms with labels,
    sharded per domain.

    Updates touch only the calling domain's private cell (no lock after the
    first update from that domain), so instrumenting the parallel explorer
    adds no contention. Reads merge the shards: counters and histograms sum;
    gauges take the maximum, making them high-water marks — the only gauge
    semantics that merges meaningfully without coordination, and exactly
    what queue-depth tracking wants. Reads are exact once writer domains
    have joined, and monotonically slightly stale while they still run. *)

type t
(** A registry. Independent registries share nothing. *)

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find-or-register; idempotent per (name, labels). Resolve handles once
    at engine entry, then update through the handle on the hot path. *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds in increasing order (default
    {!default_buckets}); an overflow bucket is added automatically. *)

val default_buckets : float array
(** Seconds-scale latency buckets, 1µs … 10s. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on negative [n]: counters only go up. *)

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Record a high-water mark: keep the maximum of the old and new value. *)

val observe : histogram -> float -> unit

val counter_value : counter -> int
val gauge_value : gauge -> float
(** Maximum across shards; [0.0] when never set. *)

type histogram_summary = {
  h_count : int;
  h_sum : float;
  h_max : float;  (** largest observation; [nan] when empty *)
  h_buckets : (float * int) list;
      (** (upper bound, count), non-cumulative; last bound is [infinity] *)
}

val histogram_summary : histogram -> histogram_summary

val shard_count : counter -> int
(** How many domains have written to this metric (for tests). *)

val counter_per_domain : counter -> int list
(** One entry per writing domain, in first-write order: the un-merged
    shard values whose sum is {!counter_value}. Lets tests see how work
    (steals, expansions) distributed across the parallel engine's
    workers. Exact once the writing domains have joined. *)

type summary =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_summary

val snapshot : t -> (string * (string * string) list * summary) list
(** Every metric, sorted by (name, labels), merged across shards. *)

val dump : t -> Json.t
(** The snapshot as a JSON array of metric objects. *)

val counter_total : t -> string -> int
(** Sum of a counter across all its label sets; 0 when absent. *)

val gauge_max : t -> string -> float
(** Maximum of a gauge across all its label sets (the gauge merge rule);
    [0.0] when absent. *)
