(* The serve-* workloads: a fleet of machines on one [Shard] domain,
   driven by a load generator on the main domain (2 domains in all).

   After set-up and a warm-up, leg A is a closed loop (at most [window]
   requests outstanding) whose per-chunk rates give the capacity, and
   leg B an open loop at a fixed rate, whose latency is timed from each
   request's due time, so a generator stall delays every request behind
   it. Each request carries its sequence number; the fleet reports it
   back through the [served] foreign call, which checks that every
   number is served exactly once and, for echo, comes back unchanged.

   The traced run times [Shard.post] on the generator side of a live
   closed loop, then replays the same request stream on one domain
   through [Sched], through [Exec] alone and through [Context] alone. *)

open Measure
module Shard = P_runtime.Shard
module Sched = P_runtime.Sched
module Exec = P_runtime.Exec
module Context = P_runtime.Context
module Rt_value = P_runtime.Rt_value
module Tables = P_compile.Tables

type workload = {
  label : string;
  program : unit -> P_syntax.Ast.program;
  machines : int;  (** fleet size: the machines the host posts to *)
  rate : float;  (** leg B offered load, requests/s *)
  chunk : int;  (** leg A requests per capacity sample *)
  warmup : int;
  replay : int;  (** requests per single-domain replay of the traced run *)
  hops : (string option * string) list;
      (** the mailbox operations of one request, read off the program, as
          (receiver, event): the receiver is the client, or the machine
          held in the client's variable *)
}

let window = 1024

(* One state pair per request, so each request walks a real transition:
   dequeue, entry, foreign call, raise. *)
let sink_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "Req" ~payload:P_syntax.Ptype.Int; event "unit" ]
    ~machines:
      [ machine "Client"
          ~foreigns:[ foreign ~params:[ P_syntax.Ptype.Int ] ~ret:P_syntax.Ptype.Void "served" ]
          [ state "Idle" ~entry:skip;
            state "Work" ~entry:(seq [ fstmt "served" [ arg ]; raise_ "unit" ]) ]
          ~steps:[ ("Idle", "Req", "Work"); ("Work", "unit", "Idle") ] ]
    "Client"

(* Each client owns an echo machine: Req -> Ping -> Pong -> served, three
   dequeues and two machine-to-machine sends per request. *)
let echo_program () =
  let open P_syntax.Builder in
  let int = P_syntax.Ptype.Int and id = P_syntax.Ptype.Machine_id in
  program
    ~events:
      [ event "Req" ~payload:int; event "Ping" ~payload:int; event "Pong" ~payload:int;
        event "unit" ]
    ~machines:
      [ machine "Client"
          ~vars:[ var_decl "echo" id; var_decl "pending" int ]
          ~foreigns:[ foreign ~params:[ int; int ] ~ret:P_syntax.Ptype.Void "served" ]
          [ state "Boot" ~entry:(seq [ new_ "echo" "Echo" [ ("client", this) ]; raise_ "unit" ]);
            state "Idle" ~entry:skip;
            state "Waiting" ~defer:[ "Req" ]
              ~entry:(seq [ assign "pending" arg; send (v "echo") "Ping" ~payload:arg ]);
            state "Reply" ~entry:(seq [ fstmt "served" [ v "pending"; arg ]; raise_ "unit" ]) ]
          ~steps:
            [ ("Boot", "unit", "Idle"); ("Idle", "Req", "Waiting");
              ("Waiting", "Pong", "Reply"); ("Reply", "unit", "Idle") ];
        machine "Echo"
          ~vars:[ var_decl "client" id ]
          [ state "Serve" ~entry:skip;
            state "Reply" ~entry:(seq [ send (v "client") "Pong" ~payload:arg; raise_ "unit" ]) ]
          ~steps:[ ("Serve", "Ping", "Reply"); ("Reply", "unit", "Serve") ] ]
    "Client"

let sink ~smoke =
  { label = "sink";
    program = sink_program;
    machines = (if smoke then 1_000 else 100_000);
    rate = (if smoke then 20_000.0 else 200_000.0);
    chunk = (if smoke then 1 lsl 12 else 1 lsl 15);
    warmup = (if smoke then 10_000 else 200_000);
    replay = (if smoke then 1 lsl 12 else 1 lsl 18);
    hops = [ (None, "Req") ] }

let echo ~smoke =
  { label = "echo";
    program = echo_program;
    machines = (if smoke then 1_000 else 100_000);
    rate = (if smoke then 10_000.0 else 80_000.0);
    chunk = (if smoke then 1 lsl 12 else 1 lsl 14);
    warmup = (if smoke then 10_000 else 200_000);
    replay = (if smoke then 1 lsl 12 else 1 lsl 17);
    hops = [ (None, "Req"); (Some "echo", "Ping"); (None, "Pong") ] }

(* ------------------------------------------------------------------ *)
(* The served-request ledger                                           *)
(* ------------------------------------------------------------------ *)

(* Written by the shard domain through [served]; read by the generator
   only through [count], and in full after the fleet quiesced. *)
type ledger = {
  seen : Bytes.t;  (** per sequence number: times served (saturating) *)
  count : int Atomic.t;
  mutable mismatched : int;  (** echo payloads that came back changed *)
  (* open-loop segment: request [open_first + i], i < [open_n], was due at
     [open_t0 + i * period]; its latency goes to [lat_ns.(lat_base + i)].
     Set while the fleet is quiescent. *)
  mutable open_first : int;
  mutable open_n : int;
  mutable open_t0 : int;
  mutable period : float;
  mutable lat_base : int;
  mutable lat_ns : int array;
  (* traced run: served time of the sampled requests *)
  mutable sampled_at : (int * int) list;
}

let ledger capacity =
  { seen = Bytes.make capacity '\000';
    count = Atomic.make 0;
    mismatched = 0;
    open_first = 0;
    open_n = 0;
    open_t0 = 0;
    period = 0.0;
    lat_base = 0;
    lat_ns = [||];
    sampled_at = [] }

let served l seq payload =
  let now = now_ns () in
  let c = Bytes.get_uint8 l.seen seq in
  Bytes.set_uint8 l.seen seq (min 255 (c + 1));
  if payload <> seq then l.mismatched <- l.mismatched + 1;
  let i = seq - l.open_first in
  if i >= 0 && i < l.open_n then
    l.lat_ns.(l.lat_base + i) <- now - (l.open_t0 + int_of_float (float_of_int i *. l.period));
  if seq mod sample_every = 0 then l.sampled_at <- (seq, now) :: l.sampled_at;
  Atomic.incr l.count

let served_fn l : Exec.foreign_fn =
 fun _ctx args ->
  (match args with
  | [ Rt_value.Int seq ] -> served l seq seq
  | [ Rt_value.Int seq; Rt_value.Int payload ] -> served l seq payload
  | _ -> l.mismatched <- l.mismatched + 1);
  Rt_value.Null

(* Sequence numbers [0, n) served exactly once each; returns how many
   were not served. *)
let check_ledger c l ~what n =
  let missing = ref 0 and dup = ref 0 in
  for i = 0 to n - 1 do
    match Bytes.get_uint8 l.seen i with 0 -> incr missing | 1 -> () | _ -> incr dup
  done;
  check c (!missing = 0 && !dup = 0) "%s: %d of %d requests unserved, %d served twice" what
    !missing n !dup;
  check c (l.mismatched = 0) "%s: %d echo payloads changed in flight" what l.mismatched;
  !missing

(* The seeded request stream: each request's target, uniform over the
   fleet. *)
let targets seed machines =
  let st = Random.State.make [| seed |] in
  fun () -> Random.State.int st machines

(* ------------------------------------------------------------------ *)
(* The live fleet                                                      *)
(* ------------------------------------------------------------------ *)

type fleet = { shard : Shard.t; clients : int array; req : int }

let compile w = (P_compile.Compile.compile (w.program ())).P_compile.Compile.driver
let event_id driver name = Option.get (Tables.event_id_of_name driver name)

let start_fleet w l =
  let shard = Shard.create ~shards:1 (compile w) in
  Shard.register_foreign shard "served" (served_fn l);
  let clients = Array.init w.machines (fun _ -> Shard.create_machine shard "Client") in
  Shard.start shard;
  let quiesced = Shard.quiesce ~timeout_s:60.0 shard in
  ({ shard; clients; req = Shard.event_id shard "Req" }, quiesced)

(* Raised by a closed loop whose fleet served nothing for [stall_ns]: a
   shard that failed stops serving, and the loop would wait forever. *)
exception Stalled of Shard.t

let stall_ns = 10_000_000_000

(* Closed loop: post requests from [first] on, keeping at most [window]
   outstanding, until [limit] are served, or until [seconds] have passed
   at a chunk boundary. Returns the requests posted and the duration of
   each completed chunk of [chunk] requests, in ns. [post seq p] calls
   [p] to post request [seq], and may time it. *)
let closed_loop ?(seconds = infinity) f l next ~first ~limit ~chunk ~post =
  let base = Atomic.get l.count in
  let t0 = now_ns () in
  let budget = int_of_float (Float.min 1e18 (seconds *. 1e9)) in
  let limit = ref limit and posted = ref 0 in
  let chunks = ref [] and t_mark = ref t0 and mark = ref chunk and finished = ref false in
  let last_done = ref (-1) and t_progress = ref t0 in
  while not !finished do
    let done_ = Atomic.get l.count - base in
    if done_ >= !mark then begin
      let now = now_ns () in
      chunks := (now - !t_mark) :: !chunks;
      t_mark := now;
      mark := !mark + chunk;
      if now - t0 >= budget then limit := !posted
    end;
    if done_ >= !limit then finished := true
    else if !posted < !limit && !posted - done_ < window then
      while !posted < !limit && !posted - done_ < window do
        post (first + !posted) (fun () ->
            Shard.post f.shard f.clients.(next ()) ~event:f.req (Rt_value.Int (first + !posted)));
        incr posted
      done
    else begin
      let now = now_ns () in
      if done_ <> !last_done then begin
        last_done := done_;
        t_progress := now
      end
      else if now - !t_progress > stall_ns then raise (Stalled f.shard);
      (* back off before re-reading the count: polling it in a tight loop
         would pull its cache line away from the shard on every request *)
      for _ = 1 to 64 do
        Domain.cpu_relax ()
      done
    end
  done;
  (!posted, List.rev !chunks)

let plain_post _seq p =
  match p () with
  | Context.Shed -> failwith "closed loop: request shed"
  | Context.Accepted | Context.Queued -> ()

(* Stop the shard domain; a failure it hit, which [Shard.stop] re-raises,
   becomes a failed check. *)
let stop_shard c shard =
  match Shard.stop shard with
  | st -> Some st
  | exception e ->
    check c false "a shard failed: %s" (Printexc.to_string e);
    None

(* Run [body]; if its fleet stalls, stop the fleet and fail the run. *)
let guarded c body =
  try body () with
  | Stalled shard ->
    check c false "the fleet served nothing for %d s" (stall_ns / 1_000_000_000);
    ignore (stop_shard c shard : Shard.stats option);
    finish c ~attempted:1 ~failed:1 []

(* ------------------------------------------------------------------ *)
(* Timed runs                                                          *)
(* ------------------------------------------------------------------ *)

let stop_and_check c f ~what =
  let quiesced = Shard.quiesce ~timeout_s:60.0 f.shard in
  let st = stop_shard c f.shard in
  check c quiesced "%s: the fleet did not quiesce" what;
  Option.iter
    (fun st ->
      check c (st.Shard.sh_pending = 0) "%s: %d ingress slots still reserved after quiescence"
        what st.Shard.sh_pending;
      check c (st.Shard.sh_shed_mailbox = 0) "%s: %d requests shed at a mailbox" what
        st.Shard.sh_shed_mailbox)
    st;
  st

(* Open loop: post [n] requests from [first] on at [w.rate], request i
   due at t0 + i/rate whatever the fleet is doing; latencies go to
   [l.lat_ns] from [lat_base]. Returns the requests shed at ingress and
   how late the generator ran at most, in ns. *)
let open_loop w f l next ~first ~n ~lat_base =
  l.open_first <- first;
  l.open_n <- n;
  l.lat_base <- lat_base;
  l.period <- 1e9 /. w.rate;
  l.open_t0 <- now_ns () + 1_000_000;
  let shed = ref 0 and late_max = ref 0 in
  for i = 0 to n - 1 do
    let due = l.open_t0 + int_of_float (float_of_int i *. l.period) in
    while now_ns () < due do
      Domain.cpu_relax ()
    done;
    late_max := max !late_max (now_ns () - due);
    match Shard.post f.shard f.clients.(next ()) ~event:f.req (Rt_value.Int (first + i)) with
    | Context.Shed -> incr shed
    | Context.Accepted | Context.Queued -> ()
  done;
  (!shed, !late_max)

(* Legs A and B alternate in [segments] rounds, so each samples the whole
   run and a slow spell of the host weighs on both alike. *)
let segments = 4

let run w ~seed ~seconds =
  let c = checks () in
  guarded c @@ fun () ->
  let seg_s = seconds /. float_of_int (2 * segments) in
  let max_chunks = 128 in
  let n_seg = max 1 (int_of_float (w.rate *. seg_s)) in
  let l = ledger (w.warmup + (segments * ((max_chunks * w.chunk) + n_seg))) in
  l.lat_ns <- Array.make (segments * n_seg) 0;
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let harness_words = live_words () in
  let timed_fleet () =
    Gc.full_major ();
    let t0 = now_ns () in
    let f, quiesced = start_fleet w l in
    check c quiesced "set-up: the fleet did not quiesce after start";
    (s_of_ns (now_ns () - t0), f)
  in
  (* One set-up sample: fleets set up and stopped back to back for
     [seconds / 40] and the mean time per set-up: single set-ups in one
     process range over a factor of two. *)
  let setup_sample () =
    let t0 = now_ns () in
    let rec go n total =
      let dt, f = timed_fleet () in
      ignore (stop_shard c f.shard : Shard.stats option);
      if now_ns () - t0 >= int_of_float (seconds /. 40.0 *. 1e9) then (total +. dt) /. float_of_int n
      else go (n + 1) (total +. dt)
    in
    go 1 0.0
  in
  (* all before the legs: after them the heap has grown, and set-up runs
     a third faster *)
  let setup_times = List.init 7 (fun _ -> setup_sample ()) in
  let _, f = timed_fleet () in
  let next = targets seed w.machines in
  let posted, _ = closed_loop f l next ~first:0 ~limit:w.warmup ~chunk:w.warmup ~post:plain_post in
  let posted = ref posted and chunks = ref [] and shed = ref 0 and late_max = ref 0 in
  for k = 0 to segments - 1 do
    (* leg A: closed loop, one capacity sample per chunk *)
    let n, cs =
      closed_loop ~seconds:seg_s f l next ~first:!posted ~limit:(max_chunks * w.chunk)
        ~chunk:w.chunk ~post:plain_post
    in
    posted := !posted + n;
    chunks := cs @ !chunks;
    (* leg B: open loop at the fixed rate *)
    let s, late = open_loop w f l next ~first:!posted ~n:n_seg ~lat_base:(k * n_seg) in
    posted := !posted + n_seg;
    shed := !shed + s;
    late_max := max !late_max late;
    check c (Shard.quiesce ~timeout_s:60.0 f.shard) "the fleet did not quiesce after an open loop"
  done;
  (* the heap the loaded fleet holds: what is live after a full collection
     beyond the ledger (the peak would measure how far the collector lagged
     behind two domains) *)
  let heap_mb = words_mb (live_words () - harness_words) in
  ignore (stop_and_check c f ~what:"serve" : Shard.stats option);
  check c (!shed = 0) "%d requests shed at ingress" !shed;
  let unserved = check_ledger c l ~what:"serve" !posted in
  let lat = Array.map float_of_int l.lat_ns in
  Array.sort compare lat;
  Printf.printf
    "  %s: %d requests, %d capacity samples; set-up %s s; open loop p99 %.1f us, p99.9 %.1f us; \
     generator late by up to %.3f ms\n%!"
    w.label !posted (List.length !chunks)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times))
    (percentile lat 0.99 /. 1e3) (percentile lat 0.999 /. 1e3) (float_of_int !late_max /. 1e6);
  finish c ~attempted:!posted ~failed:(unserved + !shed)
    [ ("setup_s", median setup_times, "s");
      ( "throughput_per_s",
        median (List.map (fun ns -> float_of_int w.chunk /. s_of_ns ns) !chunks),
        "1/s" );
      ("latency_ms", percentile lat 0.5 /. 1e6, "ms");
      ("heap_mb", heap_mb, "MB") ]

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* Replay [w.replay] requests through a single-domain Fifo [Sched]:
   post a window of requests, then run the ready queue dry. Returns the
   ns spent in [Sched.post] and in [Sched.run_ready], the bytes
   allocated and the activations. *)
let sched_replay c w ~seed =
  let driver = compile w in
  let l = ledger w.replay in
  let s = Sched.create ~policy:Sched.Fifo driver in
  Exec.register_foreign (Sched.exec s) "served" (served_fn l);
  let clients = Array.init w.machines (fun _ -> Sched.create_machine s "Client") in
  Sched.run s;
  let req = event_id driver "Req" and next = targets seed w.machines in
  let act0 = (Sched.stats s).Sched.st_activations in
  let post_ns = ref 0 and run_ns = ref 0 in
  let a0 = allocated_bytes () in
  let first = ref 0 in
  while !first < w.replay do
    let b = min window (w.replay - !first) in
    let t0 = now_ns () in
    for seq = !first to !first + b - 1 do
      ignore (Sched.post s ~src:(-1) clients.(next ()) req (Rt_value.Int seq) : Context.backpressure)
    done;
    let t1 = now_ns () in
    while Sched.run_ready s ~fuel:max_int > 0 do () done;
    let t2 = now_ns () in
    post_ns := !post_ns + (t1 - t0);
    run_ns := !run_ns + (t2 - t1);
    if !first / sample_every <> (!first + b - 1) / sample_every then begin
      span ~id:!first ~parent:"replay" "Sched.post" t0 t1;
      span ~id:!first ~parent:"replay" "Sched.run_ready" t1 t2
    end;
    first := !first + b
  done;
  let alloc = allocated_bytes () -. a0 in
  ignore (check_ledger c l ~what:"Sched replay" w.replay : int);
  (!post_ns, !run_ns, alloc, (Sched.stats s).Sched.st_activations - act0)

(* A fleet on a bare [Exec] runtime (Nested mode), entries run. *)
let exec_fleet w l =
  let driver = compile w in
  let rt = Exec.create driver in
  Exec.register_foreign rt "served" (served_fn l);
  let ty = Option.get (Tables.machine_ty_of_name driver "Client") in
  let clients =
    Array.init w.machines (fun _ ->
        let ctx = Exec.create_instance rt ~creator:None ty in
        ignore (Exec.run_if_idle rt ctx : bool);
        ctx)
  in
  (rt, driver, clients)

(* Replay the request stream through [Exec.deliver], each request run to
   completion on this domain. Returns the ns spent and the dequeues. *)
let exec_replay c w ~seed =
  let l = ledger w.replay in
  let rt, driver, clients = exec_fleet w l in
  let req = event_id driver "Req" and next = targets seed w.machines in
  let d0 = Exec.events_dequeued rt in
  let t0 = now_ns () in
  for seq = 0 to w.replay - 1 do
    let dst = clients.(next ()).Context.self in
    if seq mod sample_every = 0 then begin
      let s0 = now_ns () in
      ignore (Exec.deliver rt ~src:(-1) dst req (Rt_value.Int seq) : Context.backpressure);
      span ~id:seq ~parent:"replay" "Exec.deliver" s0 (now_ns ())
    end
    else ignore (Exec.deliver rt ~src:(-1) dst req (Rt_value.Int seq) : Context.backpressure)
  done;
  let ns = now_ns () - t0 in
  ignore (check_ledger c l ~what:"Exec replay" w.replay : int);
  (ns, Exec.events_dequeued rt - d0)

(* Replay the request stream's mailbox operations through
   [Context.enqueue] and [Context.dequeue] on idle machines: a window of
   requests enqueued, then dequeued in the same order. Returns the ns
   spent in each. *)
let context_replay c w ~seed =
  let l = ledger 0 in
  let rt, driver, clients = exec_fleet w l in
  let resolve =
    List.map
      (fun (via, ev) ->
        let ev = event_id driver ev in
        match via with
        | None -> (fun ctx -> ctx), ev
        | Some var ->
          let slot ctx =
            let vars = ctx.Context.table.Tables.mt_vars in
            let rec find i = if fst vars.(i) = var then i else find (i + 1) in
            match ctx.Context.vars.(find 0) with
            | Rt_value.Machine h -> Option.get (Exec.find_instance rt h)
            | _ -> invalid_arg "context_replay: not a machine"
          in
          (slot, ev))
      w.hops
  in
  let next = targets seed w.machines in
  let enq_ns = ref 0 and deq_ns = ref 0 and wrong = ref 0 in
  let batch = Array.make (window * List.length resolve) (clients.(0), 0, 0) in
  let first = ref 0 in
  while !first < w.replay do
    let b = min window (w.replay - !first) in
    let n = ref 0 in
    for seq = !first to !first + b - 1 do
      let client = clients.(next ()) in
      List.iter
        (fun (recv, ev) ->
          batch.(!n) <- (recv client, ev, seq);
          incr n)
        resolve
    done;
    let t0 = now_ns () in
    for i = 0 to !n - 1 do
      let ctx, ev, seq = batch.(i) in
      match Context.enqueue ctx ev (Rt_value.Int seq) with
      | Context.Enq_ok -> ()
      | Context.Enq_duplicate | Context.Enq_overflow -> incr wrong
    done;
    let t1 = now_ns () in
    for i = 0 to !n - 1 do
      let ctx, ev, seq = batch.(i) in
      match Context.dequeue ctx with
      | Some (e, Rt_value.Int s) when e = ev && s = seq -> ()
      | _ -> incr wrong
    done;
    let t2 = now_ns () in
    enq_ns := !enq_ns + (t1 - t0);
    deq_ns := !deq_ns + (t2 - t1);
    if !first / sample_every <> (!first + b - 1) / sample_every then begin
      span ~id:!first ~parent:"replay" "Context.enqueue" t0 t1;
      span ~id:!first ~parent:"replay" "Context.dequeue" t1 t2
    end;
    first := !first + b
  done;
  check c (!wrong = 0) "Context replay: %d mailbox operations went wrong" !wrong;
  (!enq_ns, !deq_ns)

let run_traced w ~seed ~trace_file =
  let c = checks () in
  guarded c @@ fun () ->
  spans := [];
  let n = 2 * w.replay in
  let l = ledger (w.warmup + (2 * n)) in
  let f, quiesced = start_fleet w l in
  check c quiesced "set-up: the fleet did not quiesce after start";
  let next = targets seed w.machines in
  let warm, _ = closed_loop f l next ~first:0 ~limit:w.warmup ~chunk:w.warmup ~post:plain_post in
  let _, untraced = closed_loop f l next ~first:warm ~limit:n ~chunk:n ~post:plain_post in
  (* the same closed loop again, timing every post *)
  let post_ns = ref 0 and posted_at = Hashtbl.create 1024 in
  let timed_post seq p =
    let t0 = now_ns () in
    plain_post seq p;
    let t1 = now_ns () in
    post_ns := !post_ns + (t1 - t0);
    if seq mod sample_every = 0 then begin
      Hashtbl.replace posted_at seq t0;
      span ~id:seq ~parent:"request" "Shard.post" t0 t1
    end
  in
  let _, traced = closed_loop f l next ~first:(warm + n) ~limit:n ~chunk:n ~post:timed_post in
  let st = stop_and_check c f ~what:"traced serve" in
  ignore (check_ledger c l ~what:"traced serve" (warm + (2 * n)) : int);
  List.iter
    (fun (seq, served_at) ->
      match Hashtbl.find_opt posted_at seq with
      | Some t0 -> span ~id:seq ~parent:"" "request" t0 served_at
      | None -> ())
    l.sampled_at;
  let per_req ns = float_of_int ns /. float_of_int n in
  let live = per_req (List.hd traced) in
  let sched_post, sched_run, alloc, activations = sched_replay c w ~seed in
  let exec_ns, dequeues = exec_replay c w ~seed in
  let enq_ns, deq_ns = context_replay c w ~seed in
  Measure.write_chrome trace_file;
  (* replays are per [w.replay] requests; shares are of one live request *)
  let share ns = float_of_int ns /. float_of_int w.replay /. live in
  let per_op x = float_of_int x /. float_of_int w.replay in
  finish c ~attempted:(warm + (2 * n) + (3 * w.replay))
    ~failed:(List.length c.failed_checks)
    [ ("trace.ns_per_op", live, "ns");
      ("trace.overhead_frac", (live /. per_req (List.hd untraced)) -. 1.0, "ratio");
      ("trace.unattributed_frac", 1.0 -. share (sched_post + sched_run), "ratio");
      ("gc.alloc_bytes_per_op", alloc /. float_of_int w.replay, "B");
      ("Shard.post_busy_frac", per_req !post_ns /. live, "ratio");
      ( "Shard.ingress_msgs_per_batch",
        (match st with
        | Some st ->
          float_of_int st.Shard.sh_ingress_msgs /. float_of_int (max 1 st.Shard.sh_ingress_batches)
        | None -> 0.0),
        "ratio" );
      ("Sched.post_busy_frac", share sched_post, "ratio");
      ("Sched.activation_busy_frac", share sched_run, "ratio");
      ("Sched.activations_per_op", per_op activations, "ratio");
      ("Exec.dispatch_busy_frac", share exec_ns, "ratio");
      ("Exec.dequeues_per_op", per_op dequeues, "ratio");
      ("Context.enqueue_busy_frac", share enq_ns, "ratio");
      ("Context.dequeue_busy_frac", share deq_ns, "ratio") ]
