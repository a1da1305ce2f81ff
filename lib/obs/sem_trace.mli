(** Serializing P traces ({!P_semantics.Trace}) to a structured sink —
    the one encoder for checker counterexamples and the live runtime alike:
    one instant event per item on the lane of its principal machine, so a
    run opens in Perfetto with one lane per machine. A checker trace is
    timestamped by position (logical traces — position is time); the
    runtime's {!hook} by the monotonic clock. *)

val cat : string
(** The Chrome-event category of P trace items ("ptrace"). *)

val encode : P_semantics.Trace.item -> string * int * (string * Json.t) list
(** [(name, principal machine id, args)] for one item; the args carry every
    field so an item can be reconstructed from the JSON alone. *)

val emit : Sink.t -> ?t0_us:float -> P_semantics.Trace.t -> unit
(** Emit a whole trace; item [i] lands at [t0_us + i] microseconds. *)

val hook : Sink.t -> P_semantics.Trace.item -> unit
(** A live trace hook, e.g. for the runtime's
    [Api.set_trace_hook rt (Some (Sem_trace.hook sink))]: each item lands
    at its real monotonic time since the hook was made. *)

val key : P_semantics.Trace.item -> string
(** A canonical comparison key — what {!key_of_args} reconstructs. *)

val key_of_args : Json.t -> string option
(** Rebuild a key from the [args] object of a parsed trace event; [None]
    when the event is not a P trace item. *)

val observable_keys : P_semantics.Trace.t -> string list
(** Keys of the externally observable items, in order. *)

val observable_keys_of_json : Json.t -> string list
(** The same keys extracted from a parsed Chrome trace document, in
    timestamp order — the round-trip inverse of {!emit} ∘ {!observable}. *)
