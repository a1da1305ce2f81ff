(** Compact canonical encodings of global configurations.

    The explicit-state search needs to ask "was this configuration (together
    with the scheduler stack) seen before?" millions of times. Marshalling
    whole configurations would serialize every statement AST hanging off the
    machines' agendas, so instead we intern every statement of the program
    once and encode a configuration as a byte string of small integers:
    interned names, interned statements, values, queues, frames, agendas.
    The encoding is injective for configurations of a fixed program, so its
    MD5 digest is a sound state key (up to digest collision). *)

open P_syntax
module Symtab = P_static.Symtab
module Machine = P_semantics.Machine
module Config = P_semantics.Config
module Value = P_semantics.Value
module Equeue = P_semantics.Equeue
module Mid = P_semantics.Mid

module Stmt_tbl = Hashtbl.Make (struct
  type t = Ast.stmt

  (* Physical equality: agenda statements are always subterms of the program,
     interned up front. The structural hash is consistent with [==] and
     stable under GC moves. *)
  let equal = ( == )
  let hash (s : t) = Hashtbl.hash s
end)

type t = {
  stmt_ids : int Stmt_tbl.t;
  mutable next_stmt : int;
  event_ids : int Names.Event.Tbl.t;
  state_ids : int Names.State.Tbl.t;
  machine_ids : int Names.Machine.Tbl.t;
  var_ids : int Names.Var.Tbl.t;
  action_ids : int Names.Action.Tbl.t;
  buf : Buffer.t;
}

(* Intern every statement node of the program, physical identity keyed.
   Statements reached at runtime are subterms of these, *except* the
   synthetic Skip nodes the builder may share; interning is therefore lazy
   with a fallback id assigned on first sight. *)
let intern_stmt t (s : Ast.stmt) =
  match Stmt_tbl.find_opt t.stmt_ids s with
  | Some id -> id
  | None ->
    let id = t.next_stmt in
    t.next_stmt <- id + 1;
    Stmt_tbl.add t.stmt_ids s id;
    id

let rec intern_all t (s : Ast.stmt) =
  let _ = intern_stmt t s in
  match s.Ast.s with
  | Ast.Seq (a, b) | Ast.If (_, a, b) ->
    intern_all t a;
    intern_all t b
  | Ast.While (_, body) -> intern_all t body
  | Ast.Skip | Ast.Assign _ | Ast.New _ | Ast.Delete | Ast.Send _ | Ast.Raise _
  | Ast.Leave | Ast.Return | Ast.Assert _ | Ast.Call_state _ | Ast.Foreign_stmt _ -> ()

let create (tab : Symtab.t) : t =
  let t =
    { stmt_ids = Stmt_tbl.create 1024;
      next_stmt = 0;
      event_ids = Names.Event.Tbl.create 64;
      state_ids = Names.State.Tbl.create 256;
      machine_ids = Names.Machine.Tbl.create 32;
      var_ids = Names.Var.Tbl.create 64;
      action_ids = Names.Action.Tbl.create 32;
      buf = Buffer.create 512 }
  in
  List.iteri
    (fun i (ev : Ast.event_decl) -> Names.Event.Tbl.replace t.event_ids ev.event_name i)
    tab.program.events;
  List.iteri
    (fun i (m : Ast.machine) ->
      Names.Machine.Tbl.replace t.machine_ids m.machine_name i;
      List.iteri
        (fun j (st : Ast.state) ->
          if not (Names.State.Tbl.mem t.state_ids st.state_name) then
            Names.State.Tbl.replace t.state_ids st.state_name ((i * 1000) + j))
        m.states;
      List.iteri
        (fun j (vd : Ast.var_decl) ->
          if not (Names.Var.Tbl.mem t.var_ids vd.var_name) then
            Names.Var.Tbl.replace t.var_ids vd.var_name ((i * 1000) + j))
        m.vars;
      List.iteri
        (fun j (ad : Ast.action_decl) ->
          if not (Names.Action.Tbl.mem t.action_ids ad.action_name) then
            Names.Action.Tbl.replace t.action_ids ad.action_name ((i * 1000) + j))
        m.actions;
      List.iter (fun s -> intern_all t s) (Ast.machine_stmts m))
    tab.program.machines;
  t

(* --- primitive encoders --- *)

let add_int t i =
  (* variable-length little-endian; sufficient and fast *)
  let rec go i =
    if i land lnot 0x7f = 0 then Buffer.add_char t.buf (Char.chr i)
    else begin
      Buffer.add_char t.buf (Char.chr (0x80 lor (i land 0x7f)));
      go (i lsr 7)
    end
  in
  go (if i < 0 then (-2 * i) - 1 else 2 * i)

let add_event t e = add_int t (Names.Event.Tbl.find t.event_ids e)
let add_state t n = add_int t (Names.State.Tbl.find t.state_ids n)
let add_machine_name t m = add_int t (Names.Machine.Tbl.find t.machine_ids m)
let add_var t x = add_int t (Names.Var.Tbl.find t.var_ids x)
let add_action t a = add_int t (Names.Action.Tbl.find t.action_ids a)

let add_value t (v : Value.t) =
  match v with
  | Value.Null -> add_int t 0
  | Value.Bool false -> add_int t 1
  | Value.Bool true -> add_int t 2
  | Value.Int i ->
    add_int t 3;
    add_int t i
  | Value.Event e ->
    add_int t 4;
    add_event t e
  | Value.Machine id ->
    add_int t 5;
    add_int t (Mid.to_int id)

let add_task t (task : Machine.task) =
  match task with
  | Machine.Exec s ->
    add_int t 0;
    add_int t (intern_stmt t s)
  | Machine.Handle (e, v) ->
    add_int t 1;
    add_event t e;
    add_value t v
  | Machine.Pop_return -> add_int t 2
  | Machine.Pop_frame -> add_int t 3
  | Machine.Enter n ->
    add_int t 4;
    add_state t n

let add_machine t (m : Machine.t) =
  add_machine_name t m.name;
  add_int t (Mid.to_int m.self);
  add_int t (List.length m.frames);
  List.iter
    (fun (fr : Machine.frame) ->
      add_state t fr.fr_state;
      add_int t (Names.Event.Map.cardinal fr.fr_amap);
      Names.Event.Map.iter
        (fun e h ->
          add_event t e;
          match h with
          | Machine.Defer -> add_int t 0
          | Machine.Do a ->
            add_int t 1;
            add_action t a)
        fr.fr_amap;
      add_int t (List.length fr.fr_cont);
      List.iter (add_task t) fr.fr_cont)
    m.frames;
  add_int t (Names.Var.Map.cardinal m.store);
  Names.Var.Map.iter
    (fun x v ->
      add_var t x;
      add_value t v)
    m.store;
  (match m.msg with
  | None -> add_int t 0
  | Some e ->
    add_int t 1;
    add_event t e);
  add_value t m.arg;
  add_int t (List.length m.agenda);
  List.iter (add_task t) m.agenda;
  add_int t (Equeue.length m.queue);
  List.iter
    (fun (entry : Equeue.entry) ->
      add_event t entry.event;
      add_value t entry.payload)
    (Equeue.to_list m.queue)

(** [machine_digest t id m]: MD5 of the canonical encoding of the single
    machine [m] bound at [id] — the per-machine unit the incremental
    fingerprint caches. Mirrors exactly the per-machine segment of
    {!digest}'s encoding. *)
let machine_digest t (id : Mid.t) (m : Machine.t) : string =
  Buffer.clear t.buf;
  add_int t (Mid.to_int id);
  add_machine t m;
  Digest.string (Buffer.contents t.buf)

(** [digest t config extra]: MD5 of the canonical encoding of [config]
    followed by the integers [extra] (used for the scheduler stack). *)
let digest t (config : Config.t) (extra : int list) : string =
  Buffer.clear t.buf;
  add_int t (Mid.to_int config.next_id);
  add_int t (Config.live_count config);
  Config.fold
    (fun id m () ->
      add_int t (Mid.to_int id);
      add_machine t m)
    config ();
  add_int t (List.length extra);
  List.iter (add_int t) extra;
  (* Fault-point counter, appended only when a fault plan has consumed
     indices, so fault-free digests are byte-compatible with every
     artifact written before fault injection existed. Injective: [extra]
     is length-prefixed, so a trailing varint cannot be confused with
     extra content. *)
  if config.fseq > 0 then add_int t config.fseq;
  Digest.string (Buffer.contents t.buf)
