(** Workload driver for the efficiency experiment of section 4.1: deliver
    interrupts to a driver at a fixed simulated rate and measure the
    *wall-clock* cost of handling each event (the simulated clock advances
    instantaneously, so per-event handler cost is isolated from the arrival
    schedule). *)

type stats = {
  events : int;
  total_ns : float;
  mean_ns : float;
  max_ns : float;
  p99_ns : float;
}

let pp_stats ppf s =
  Fmt.pf ppf "%d events, mean %.0f ns, p99 %.0f ns, max %.0f ns" s.events s.mean_ns
    s.p99_ns s.max_ns

(** Run [events] callbacks at [rate_hz] (simulated) against [driver],
    producing per-event wall-time statistics. [make_event i] chooses the
    i-th callback. *)
let run ?(rate_hz = 100) ?(events = 1000) ~(make_event : int -> Os_events.t)
    (driver : Os_events.driver) : stats =
  let clock = Clock.create () in
  let period_us = 1_000_000 / rate_hz in
  let samples = Array.make events 0.0 in
  driver.Os_events.add_device ();
  for i = 0 to events - 1 do
    Clock.schedule clock ~delay_us:((i + 1) * period_us) (fun () ->
        let ev = make_event i in
        let span = P_obs.Mclock.start () in
        driver.Os_events.callback ev;
        samples.(i) <- Int64.to_float (P_obs.Mclock.elapsed_ns span))
  done;
  let dispatched = Clock.run clock in
  assert (dispatched = events);
  driver.Os_events.remove_device ();
  let total = Array.fold_left ( +. ) 0.0 samples in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  { events;
    total_ns = total;
    mean_ns = total /. float_of_int events;
    max_ns = sorted.(events - 1);
    p99_ns = sorted.(min (events - 1) (events * 99 / 100)) }
