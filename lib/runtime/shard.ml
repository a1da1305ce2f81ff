(** The sharding layer: N domain-pinned {!Sched} schedulers serving one
    logical machine population.

    A machine's home shard is a pure function (a splitmix-style avalanche)
    of its handle, and handles come from one global atomic counter, so any
    shard — and the host — can route to any machine without shared state.
    Cross-shard traffic goes through per-shard MPSC transfer queues built
    as Treiber stacks of *batches*: a producer pushes a whole batch with
    one CAS (the same lock-free claim idiom as the compact state store and
    the Chase–Lev deque in the checker), and the consumer takes the entire
    stack with one [Atomic.exchange] per drain. Producer-side buffers
    amortize the CAS over [batch] messages; spawn messages flush eagerly
    so a child's materialization is ordered before any message that could
    carry its handle.

    Backpressure is two-level: each shard bounds its in-flight transfer
    messages ([ingress_capacity] — {!post} returns [Shed] synchronously
    when full), and each mailbox is bounded by the scheduler's [capacity]
    (asynchronous sheds, counted per shard). Nothing in this layer can
    grow without limit. *)

module Tables = P_compile.Tables

type msg =
  | M_send of { src : int; dst : int; event : int; payload : Rt_value.t }
  | M_spawn of {
      handle : int;
      creator : int option;
      ty : int;
      inits : (int * Rt_value.t) list;
    }

(* Treiber stack of batches; [msgs] is newest-first (producer conses). *)
type node = Nil | Batch of { msgs : msg list; next : node }

(** Per-shard mutable state beyond the scheduler itself. The counters are
    single-writer (the owning domain); cross-domain reads may be stale. *)
type shard = {
  sched : Sched.t;
  inbound : node Atomic.t;  (** shard-to-shard transfer batches *)
  ingress : node Atomic.t;  (** host posts ({!post}); separate from
      [inbound] so transfer counters honestly measure only cross-shard
      traffic — a single-shard run consumes zero transfer batches *)
  pending : int Atomic.t;  (** in-flight transfer + ingress messages *)
  idle : bool Atomic.t;
  (* producer-side buffers for every destination, owned by this shard's
     domain: out.(d) are messages bound for shard d, newest first *)
  out : msg list array;
  outn : int array;
  mutable c_xfer_batches : int;  (** cross-shard batches this shard consumed *)
  mutable c_xfer_msgs : int;
  mutable c_ingress_batches : int;  (** host-ingress batches consumed *)
  mutable c_ingress_msgs : int;
}

type t = {
  n : int;
  shards : shard array;
  next_handle : int Atomic.t;
  stop : bool Atomic.t;
  failure : exn option Atomic.t;
  shed_ingress : int Atomic.t;  (** posts refused at a full transfer queue *)
  ingress_capacity : int;
  batch : int;
  fuel : int;
  telemetry : P_obs.Telemetry.t;
  mutable domains : unit Domain.t array;
  mutable started : bool;
}

(* Handle → home shard: an avalanche mix so consecutive handles spread
   across shards (consecutive ids are typically created together and
   would otherwise pin a creation burst to one shard). *)
let home t h =
  if t.n = 1 then 0
  else begin
    let h = h lxor (h lsr 33) in
    let h = h * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 29) in
    (h land max_int) mod t.n
  end

(* ------------------------------------------------------------------ *)
(* Transfer queues                                                     *)
(* ------------------------------------------------------------------ *)

let rec push_node (st : node Atomic.t) msgs =
  let cur = Atomic.get st in
  if not (Atomic.compare_and_set st cur (Batch { msgs; next = cur })) then
    push_node st msgs

(* Reserve one ingress slot at [dst]; false = full (shed). The
   check-then-add is racy by design: overshoot is bounded by the number
   of concurrent producers, which is all a soft admission bound needs. *)
let reserve t dst =
  if Atomic.get t.shards.(dst).pending >= t.ingress_capacity then begin
    Atomic.incr t.shed_ingress;
    false
  end
  else begin
    ignore (Atomic.fetch_and_add t.shards.(dst).pending 1 : int);
    true
  end

(* Flush shard [s]'s buffer for destination [d] (owning domain only). *)
let flush_one t s d =
  let sh = t.shards.(s) in
  if sh.outn.(d) > 0 then begin
    push_node t.shards.(d).inbound sh.out.(d);
    sh.out.(d) <- [];
    sh.outn.(d) <- 0
  end

let flush_all t s =
  for d = 0 to t.n - 1 do
    flush_one t s d
  done

(* Buffer a message from shard [s] to shard [d]; flushes at the batch
   size. Caller has already reserved the ingress slot. *)
let buffer t s d msg =
  let sh = t.shards.(s) in
  sh.out.(d) <- msg :: sh.out.(d);
  sh.outn.(d) <- sh.outn.(d) + 1;
  if sh.outn.(d) >= t.batch then flush_one t s d

(* Drain one of shard [sh]'s queues: one exchange takes every batch
   pushed since the last drain; reversal restores per-producer FIFO
   order. Returns [(batches, messages)] processed. *)
let drain_queue (sh : shard) (q : node Atomic.t) : int * int =
  if Atomic.get q = Nil then (0, 0)
  else begin
    (* Leave idle before taking the work: otherwise {!quiesce} can see this
       shard idle with the queue and [pending] already empty while the
       drained messages have not run yet. *)
    Atomic.set sh.idle false;
    let rec batches acc = function
      | Nil -> acc  (* acc is oldest-first after the walk *)
      | Batch { msgs; next } -> batches (msgs :: acc) next
    in
    let nb = ref 0 and n = ref 0 in
    List.iter
      (fun msgs ->
        incr nb;
        List.iter
          (fun msg ->
            incr n;
            (match msg with
            | M_send { src; dst; event; payload } ->
              let (_ : Context.backpressure) =
                Sched.post sh.sched ~src dst event payload
              in
              ()
            | M_spawn { handle; creator; ty; inits } ->
              Sched.adopt_spawn sh.sched ~handle ~creator ty inits);
            ignore (Atomic.fetch_and_add sh.pending (-1) : int))
          (List.rev msgs))
      (batches [] (Atomic.exchange q Nil));
    (!nb, !n)
  end

(* Cross-shard transfer traffic. *)
let drain_inbound t s =
  let sh = t.shards.(s) in
  let nb, n = drain_queue sh sh.inbound in
  sh.c_xfer_batches <- sh.c_xfer_batches + nb;
  sh.c_xfer_msgs <- sh.c_xfer_msgs + n;
  n

(* Host posts. *)
let drain_ingress t s =
  let sh = t.shards.(s) in
  let nb, n = drain_queue sh sh.ingress in
  sh.c_ingress_batches <- sh.c_ingress_batches + nb;
  sh.c_ingress_msgs <- sh.c_ingress_msgs + n;
  n

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(shards = 1) ?(policy = Sched.Fifo) ?quantum ?capacity
    ?(ingress_capacity = 1 lsl 16) ?(batch = 32) ?(fuel = 1024) ?seed ?faults
    ?metrics ?(telemetry = P_obs.Telemetry.null) (driver : Tables.driver) : t =
  if shards < 1 then invalid_arg "Shard.create: shards";
  (* Decorrelate the fault schedules of different shards: each gets the
     same rates under a seed offset by a large odd constant times the
     shard index, so shard populations don't crash or drop in lockstep. *)
  let shard_faults s =
    match faults with
    | Some p when not (P_semantics.Fault.is_none p) ->
      Some
        (P_semantics.Fault.with_seed
           (p.P_semantics.Fault.seed + ((s + 1) * 1_000_003))
           p)
    | _ -> None
  in
  let next_handle = Atomic.make 0 in
  let rec t =
    lazy
      { n = shards;
        shards =
          Array.init shards (fun s ->
              let router =
                { Sched.rt_alloc =
                    (fun () -> Atomic.fetch_and_add next_handle 1);
                  rt_home = (fun h -> home (Lazy.force t) h = s);
                  rt_send =
                    (fun ~src ~dst ~event ~payload ->
                      let t = Lazy.force t in
                      let d = home t dst in
                      if d = s then
                        (* shard-local: straight into the local mailbox —
                           never through the transfer machinery. [Sched]
                           already routes [rt_home] destinations locally,
                           so this is the layer's own guarantee, not a
                           reachable round trip. *)
                        Sched.post t.shards.(s).sched ~src dst event payload
                      else if reserve t d then begin
                        buffer t s d (M_send { src; dst; event; payload });
                        Context.Queued
                      end
                      else Context.Shed);
                  rt_spawn =
                    (fun ~handle ~creator ~ty ~inits ->
                      let t = Lazy.force t in
                      let d = home t handle in
                      if d = s then
                        Sched.adopt_spawn t.shards.(s).sched ~handle
                          ~creator:(Some creator) ty inits
                      else begin
                        (* no admission control for spawns: dropping a child
                           would dangle the handle the parent already holds.
                           [pending] still tracks it for quiescence. *)
                        ignore (Atomic.fetch_and_add t.shards.(d).pending 1 : int);
                        buffer t s d
                          (M_spawn { handle; creator = Some creator; ty; inits });
                        (* materialization must be ordered before any message
                           that can carry the child's handle *)
                        flush_one t s d
                      end) }
              in
              let sched =
                Sched.create ~policy ?quantum ?capacity ?seed:
                  (Option.map (fun sd -> sd + s) seed)
                  ?faults:(shard_faults s) ~router driver
              in
              Sched.set_metrics sched metrics;
              { sched;
                inbound = Atomic.make Nil;
                ingress = Atomic.make Nil;
                pending = Atomic.make 0;
                idle = Atomic.make false;
                out = Array.make shards [];
                outn = Array.make shards 0;
                c_xfer_batches = 0;
                c_xfer_msgs = 0;
                c_ingress_batches = 0;
                c_ingress_msgs = 0 });
        next_handle;
        stop = Atomic.make false;
        failure = Atomic.make None;
        shed_ingress = Atomic.make 0;
        ingress_capacity;
        batch;
        fuel;
        telemetry;
        domains = [||];
        started = false }
  in
  Lazy.force t

let exec_of t s = Sched.exec t.shards.(s).sched

(** Register a foreign function on every shard's runtime. The closure runs
    on the owning shard's domain; shard-local state can be captured per
    shard via {!register_foreign_per_shard}. *)
let register_foreign t name fn =
  Array.iter (fun sh -> Exec.register_foreign (Sched.exec sh.sched) name fn) t.shards

let register_foreign_per_shard t name mk =
  Array.iteri
    (fun s sh -> Exec.register_foreign (Sched.exec sh.sched) name (mk s))
    t.shards

let event_id t name =
  match Tables.event_id_of_name (Sched.exec t.shards.(0).sched).Exec.driver name with
  | None -> Exec.error "unknown event %s" name
  | Some e -> e

(* ------------------------------------------------------------------ *)
(* The shard loop                                                      *)
(* ------------------------------------------------------------------ *)

let shard_loop t s =
  let sh = t.shards.(s) in
  let idle_rounds = ref 0 in
  (try
     while not (Atomic.get t.stop) do
       let drained = drain_ingress t s + drain_inbound t s in
       let ran = Sched.run_ready sh.sched ~fuel:t.fuel in
       flush_all t s;
       P_obs.Telemetry.tick t.telemetry;
       if drained = 0 && ran = 0 then begin
         if !idle_rounds = 0 then begin
           Sched.flush_metrics sh.sched;
           Atomic.set sh.idle true
         end;
         incr idle_rounds;
         (* stay hot briefly, then let hyperthread siblings breathe *)
         if !idle_rounds < 1000 then Domain.cpu_relax () else Thread.yield ()
       end
       else begin
         if !idle_rounds > 0 then Atomic.set sh.idle false;
         idle_rounds := 0
       end
     done
   with e ->
     let (_ : bool) = Atomic.compare_and_set t.failure None (Some e) in
     Atomic.set t.stop true);
  (* a dying shard still publishes its buffered messages so peers don't
     wait on mail that was never sent *)
  flush_all t s;
  Sched.flush_metrics sh.sched;
  Atomic.set sh.idle true

(* ------------------------------------------------------------------ *)
(* External ingress and machine creation                               *)
(* ------------------------------------------------------------------ *)

(** Create a machine before {!start}: adopts directly into its home shard
    (no domains are running yet, so this is plain single-threaded code). *)
let create_machine t (machine : string) : int =
  if t.started then
    invalid_arg "Shard.create_machine: shards already running (spawn from machine code)";
  let handle = Atomic.fetch_and_add t.next_handle 1 in
  let s = home t handle in
  ignore (Sched.create_machine t.shards.(s).sched ~handle machine : int);
  handle

(** Post an event from the host into a machine's home shard. Synchronous
    [Shed] when the shard's transfer queue is at capacity — the
    backpressure signal an open-loop load generator reacts to. *)
let post t dst ~event payload : Context.backpressure =
  let d = home t dst in
  if not (reserve t d) then Context.Shed
  else begin
    push_node t.shards.(d).ingress
      [ M_send { src = -1; dst; event; payload } ];
    Context.Queued
  end

(* ------------------------------------------------------------------ *)
(* Quiescence, stop, stats                                             *)
(* ------------------------------------------------------------------ *)

let all_idle t =
  Array.for_all
    (fun sh ->
      Atomic.get sh.idle
      && Atomic.get sh.pending = 0
      && Atomic.get sh.inbound = Nil
      && Atomic.get sh.ingress = Nil)
    t.shards

(** Wait until every shard is idle with empty queues (stable across two
    observations), a failure surfaces, or [timeout_s] passes. Returns
    [true] on quiescence. *)
let quiesce ?(timeout_s = 60.0) t =
  let t0 = P_obs.Mclock.now_us () in
  let deadline = t0 +. (timeout_s *. 1e6) in
  let rec wait stable =
    if Atomic.get t.failure <> None || Atomic.get t.stop then true
    else if P_obs.Mclock.now_us () > deadline then false
    else if all_idle t then
      if stable then true
      else begin
        Domain.cpu_relax ();
        wait true
      end
    else begin
      Thread.yield ();
      wait false
    end
  in
  wait false

type stats = {
  sh_shards : int;
  sh_machines : int;  (** live instances across shards *)
  sh_sends : int;  (** local (intra-shard) deliveries *)
  sh_spawns : int;
  sh_activations : int;
  sh_yields : int;
  sh_dequeues : int;  (** events processed *)
  sh_shed_mailbox : int;  (** drops at full bounded mailboxes *)
  sh_shed_ingress : int;  (** posts refused at full transfer queues *)
  sh_dead_letters : int;  (** sends to deleted machines *)
  sh_xfer_batches : int;  (** cross-shard batches consumed *)
  sh_xfer_msgs : int;  (** cross-shard messages consumed *)
  sh_ingress_batches : int;  (** host-post batches consumed *)
  sh_ingress_msgs : int;  (** host-post messages consumed *)
  sh_pending : int;  (** unreleased ingress/transfer slots; 0 once drained *)
  sh_fault_drops : int;  (** injected drops across shards *)
  sh_fault_dups : int;  (** injected duplications across shards *)
  sh_fault_reorders : int;  (** injected reorders across shards *)
  sh_crash_restarts : int;  (** injected crash-restarts across shards *)
}

let stats t : stats =
  let z =
    { sh_shards = t.n;
      sh_machines = 0;
      sh_sends = 0;
      sh_spawns = 0;
      sh_activations = 0;
      sh_yields = 0;
      sh_dequeues = 0;
      sh_shed_mailbox = 0;
      sh_shed_ingress = Atomic.get t.shed_ingress;
      sh_dead_letters = 0;
      sh_xfer_batches = 0;
      sh_xfer_msgs = 0;
      sh_ingress_batches = 0;
      sh_ingress_msgs = 0;
      sh_pending = 0;
      sh_fault_drops = 0;
      sh_fault_dups = 0;
      sh_fault_reorders = 0;
      sh_crash_restarts = 0 }
  in
  Array.fold_left
    (fun acc sh ->
      let s = Sched.stats sh.sched in
      { acc with
        sh_machines =
          acc.sh_machines + Hashtbl.length (Sched.exec sh.sched).Exec.instances;
        sh_sends = acc.sh_sends + s.Sched.st_sends;
        sh_spawns = acc.sh_spawns + s.Sched.st_spawns;
        sh_activations = acc.sh_activations + s.Sched.st_activations;
        sh_yields = acc.sh_yields + s.Sched.st_yields;
        sh_dequeues = acc.sh_dequeues + s.Sched.st_dequeues;
        sh_shed_mailbox = acc.sh_shed_mailbox + s.Sched.st_shed_mailbox;
        sh_dead_letters = acc.sh_dead_letters + s.Sched.st_dead_letters;
        sh_xfer_batches = acc.sh_xfer_batches + sh.c_xfer_batches;
        sh_xfer_msgs = acc.sh_xfer_msgs + sh.c_xfer_msgs;
        sh_ingress_batches = acc.sh_ingress_batches + sh.c_ingress_batches;
        sh_ingress_msgs = acc.sh_ingress_msgs + sh.c_ingress_msgs;
        sh_pending = acc.sh_pending + Atomic.get sh.pending;
        sh_fault_drops = acc.sh_fault_drops + s.Sched.st_fault_drops;
        sh_fault_dups = acc.sh_fault_dups + s.Sched.st_fault_dups;
        sh_fault_reorders = acc.sh_fault_reorders + s.Sched.st_fault_reorders;
        sh_crash_restarts = acc.sh_crash_restarts + s.Sched.st_crash_restarts })
    z t.shards

(** Total events processed and total sheds — cheap racy reads for
    telemetry probes and progress displays. *)
let events_processed t =
  Array.fold_left
    (fun acc sh -> acc + Exec.events_dequeued (Sched.exec sh.sched))
    0 t.shards

let shed_total t =
  Atomic.get t.shed_ingress
  + Array.fold_left
      (fun acc sh -> acc + (Sched.stats sh.sched).Sched.st_shed_mailbox)
      0 t.shards

let ready_total t =
  Array.fold_left (fun acc sh -> acc + Sched.ready_length sh.sched) 0 t.shards

let sends_total t =
  Array.fold_left
    (fun acc sh -> acc + (Sched.stats sh.sched).Sched.st_sends)
    0 t.shards

(** Spawn the shard domains. The telemetry probe maps the sampler's
    exploration vocabulary onto serving terms: states ≙ events processed,
    transitions ≙ local deliveries, frontier ≙ ready machines — so
    [states_per_s] reads as sustained events/sec and [shed] carries the
    backpressure drops. *)
let start t =
  if t.started then invalid_arg "Shard.start: already started";
  t.started <- true;
  if P_obs.Telemetry.enabled t.telemetry then begin
    P_obs.Telemetry.set_meta t.telemetry
      [ ("role", P_obs.Json.String "serving-runtime");
        ("shards", P_obs.Json.Int t.n) ];
    P_obs.Telemetry.set_probe t.telemetry (fun () ->
        { P_obs.Telemetry.states = events_processed t;
          transitions = sends_total t;
          frontier = float_of_int (ready_total t);
          steals = 0;
          steal_attempts = 0;
          store_bytes = 0;
          shed = shed_total t })
  end;
  t.domains <- Array.init t.n (fun s -> Domain.spawn (fun () -> shard_loop t s))

(** Stop the shard domains, join them, and return final (exact) stats.
    Re-raises the first failure a shard hit, if any. *)
let stop t : stats =
  Atomic.set t.stop true;
  Array.iter Domain.join t.domains;
  t.domains <- [||];
  match Atomic.get t.failure with
  | Some e -> raise e
  | None -> stats t
