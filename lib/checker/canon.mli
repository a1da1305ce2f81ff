(** Compact canonical encodings of global configurations for the
    explicit-state search's seen set. Statements are interned once (by
    physical identity — agenda statements are always subterms of the
    program), names map to dense integers, and a configuration encodes to a
    short byte string whose MD5 digest is the state key. *)

type t

val create : P_static.Symtab.t -> t
(** Build the interning tables for one program. Encoders are stateful and
    not thread-safe: use one per domain (interning is deterministic, so
    separate encoders produce identical digests). *)

val digest : t -> P_semantics.Config.t -> int list -> string
(** [digest t config extra]: MD5 of the canonical encoding of [config]
    followed by the integers [extra] (used for the scheduler stack). *)

val machine_digest : t -> P_semantics.Mid.t -> P_semantics.Machine.t -> string
(** MD5 of the canonical encoding of one machine binding — the unit the
    incremental {!Fingerprint} caches per physical machine value. *)
