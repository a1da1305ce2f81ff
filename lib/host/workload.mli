(** Workload driver for the efficiency experiment of section 4.1: deliver
    interrupts at a fixed simulated rate and measure the wall-clock cost of
    handling each one. *)

type stats = {
  events : int;
  total_ns : float;
  mean_ns : float;
  max_ns : float;
  p99_ns : float;
}

val pp_stats : stats Fmt.t

val run :
  ?rate_hz:int ->
  ?events:int ->
  make_event:(int -> Os_events.t) ->
  Os_events.driver ->
  stats
(** [run ~make_event driver] attaches the device, delivers [events]
    (default 1000) callbacks at [rate_hz] (default 100) on the simulated
    clock, detaches, and reports per-event wall-time statistics. *)
