(** C code generation in the style described in section 4 of the paper.

    The output is one self-contained C translation unit: enumerations give
    every event, machine type, variable and state a globally-known index; a
    [PRT_DRIVER] structure points at per-machine tables of variables and
    states; each state entry carries its deferred-set bitmap, transition
    tables and entry/exit function pointers; and the bodies of entry, exit
    and action functions are emitted as C functions calling into the runtime
    (the [PrtRt*] calls correspond to the paper's [SMCreateMachine] /
    [SMAddEvent] runtime APIs and their internal relatives).

    The emitted code targets the runtime header [p_runtime.h], whose OCaml
    twin is {!P_runtime}; this repository does not compile the C (there is no
    KMDF host here), but the tests check its shape and the emitter documents
    precisely what the paper's compiler produces. *)

open Tables

let buf_add = Buffer.add_string

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') name

let event_enum d i = Printf.sprintf "P_EVENT_%s" (sanitize (fst d.dr_events.(i)))
let machine_enum d i = Printf.sprintf "P_MACHINE_%s" (sanitize d.dr_machines.(i).mt_name)
let state_enum mt i = Printf.sprintf "P_STATE_%s_%s" (sanitize mt.mt_name) (sanitize mt.mt_states.(i).st_name)
let var_enum mt i = Printf.sprintf "P_VAR_%s_%s" (sanitize mt.mt_name) (sanitize (fst mt.mt_vars.(i)))
let fun_name kind mt what = Printf.sprintf "P_%s_%s_%s" kind (sanitize mt.mt_name) (sanitize what)

let c_unop = function Not -> "!" | Neg -> "-"

let c_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | And -> "&&"
  | Or -> "||"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Expressions evaluate to PRT_VALUE; the runtime provides boxing helpers. *)
let rec c_expr d mt (e : cexpr) : string =
  match e with
  | CThis -> "PrtThis(ctx)"
  | CMsg -> "PrtMsg(ctx)"
  | CArg -> "PrtArg(ctx)"
  | CNull -> "PrtNull()"
  | CBool b -> Printf.sprintf "PrtBool(%s)" (if b then "PRT_TRUE" else "PRT_FALSE")
  | CInt i -> Printf.sprintf "PrtInt(%d)" i
  | CEvent i -> Printf.sprintf "PrtEvent(%s)" (event_enum d i)
  | CVar i -> Printf.sprintf "PrtGetVar(ctx, %s)" (var_enum mt i)
  | CUnop (op, a) -> Printf.sprintf "PrtUnop('%s', %s)" (c_unop op) (c_expr d mt a)
  | CBinop (op, a, b) ->
    Printf.sprintf "PrtBinop(\"%s\", %s, %s)" (c_binop op) (c_expr d mt a) (c_expr d mt b)
  | CForeign_call (f, args) ->
    let fs = mt.mt_foreigns.(f) in
    Printf.sprintf "%s(PrtGetContext(ctx)%s)" (sanitize fs.fs_name)
      (String.concat ""
         (List.map (fun a -> ", " ^ c_expr d mt a) args))
  | CNondet ->
    (* only full (un-erased) tables contain CNondet, and those exist solely
       for the differential-replay executor *)
    invalid_arg "C_emit: CNondet in tables — emit erased tables, not full ones"

let rec c_code buf d mt indent (code : code) : unit =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun s -> buf_add buf (pad ^ s ^ "\n")) fmt in
  match code with
  | CSkip -> line "/* skip */;"
  | CAssign (x, e) -> line "PrtSetVar(ctx, %s, %s);" (var_enum mt x) (c_expr d mt e)
  | CNew (x, ty, inits) ->
    line "{";
    line "  PRT_MACHINE_HANDLE h = PrtRtCreateMachine(ctx->driver, %s);"
      (machine_enum d ty);
    List.iter
      (fun (y, e) ->
        let target = d.dr_machines.(ty) in
        line "  PrtSetVarOf(h, %s, %s);" (var_enum target y) (c_expr d mt e))
      inits;
    line "  PrtRtStartMachine(h);";
    line "  PrtSetVar(ctx, %s, PrtMachine(h));" (var_enum mt x);
    line "}"
  | CDelete -> line "PrtRtDeleteMachine(ctx); return;"
  | CSend (target, ev, payload) ->
    line "PrtRtSend(ctx, %s, %s, %s);" (c_expr d mt target) (event_enum d ev)
      (c_expr d mt payload)
  | CRaise (ev, payload) ->
    line "PrtRtRaise(ctx, %s, %s); return;" (event_enum d ev) (c_expr d mt payload)
  | CLeave -> line "PrtRtLeave(ctx); return;"
  | CReturn -> line "PrtRtReturn(ctx); return;"
  | CAssert (e, msg) -> line "PrtAssert(PrtToBool(%s), \"%s\");" (c_expr d mt e) msg
  | CSeq (a, b) ->
    c_code buf d mt indent a;
    c_code buf d mt indent b
  | CIf (c, t, f) ->
    line "if (PrtToBool(%s)) {" (c_expr d mt c);
    c_code buf d mt (indent + 2) t;
    line "} else {";
    c_code buf d mt (indent + 2) f;
    line "}"
  | CWhile (c, body) ->
    line "while (PrtToBool(%s)) {" (c_expr d mt c);
    c_code buf d mt (indent + 2) body;
    line "}"
  | CCall_state n -> line "PrtRtCallState(ctx, %s); return;" (state_enum mt n)
  | CForeign_stmt (f, args) ->
    let fs = mt.mt_foreigns.(f) in
    line "%s(PrtGetContext(ctx)%s);" (sanitize fs.fs_name)
      (String.concat "" (List.map (fun a -> ", " ^ c_expr d mt a) args))

let emit_enums buf d =
  buf_add buf "/* --- events --- */\ntypedef enum {\n";
  Array.iteri (fun i _ -> buf_add buf (Printf.sprintf "  %s = %d,\n" (event_enum d i) i)) d.dr_events;
  buf_add buf (Printf.sprintf "  P_EVENT_COUNT = %d\n} PRT_EVENT;\n\n" (Array.length d.dr_events));
  buf_add buf "/* --- machine types --- */\ntypedef enum {\n";
  Array.iteri
    (fun i _ -> buf_add buf (Printf.sprintf "  %s = %d,\n" (machine_enum d i) i))
    d.dr_machines;
  buf_add buf
    (Printf.sprintf "  P_MACHINE_COUNT = %d\n} PRT_MACHINE_TYPE;\n\n"
       (Array.length d.dr_machines));
  Array.iter
    (fun mt ->
      buf_add buf (Printf.sprintf "/* --- machine %s --- */\n" mt.mt_name);
      if Array.length mt.mt_vars > 0 then begin
        buf_add buf "typedef enum {\n";
        Array.iteri
          (fun i _ -> buf_add buf (Printf.sprintf "  %s = %d,\n" (var_enum mt i) i))
          mt.mt_vars;
        buf_add buf (Printf.sprintf "} PRT_VARS_%s;\n" (sanitize mt.mt_name))
      end;
      buf_add buf "typedef enum {\n";
      Array.iteri
        (fun i _ -> buf_add buf (Printf.sprintf "  %s = %d,\n" (state_enum mt i) i))
        mt.mt_states;
      buf_add buf (Printf.sprintf "} PRT_STATES_%s;\n\n" (sanitize mt.mt_name)))
    d.dr_machines

let emit_functions buf d =
  Array.iter
    (fun mt ->
      Array.iteri
        (fun _ st ->
          buf_add buf
            (Printf.sprintf "static void %s(PRT_SM_CONTEXT *ctx)\n{\n"
               (fun_name "ENTRY" mt st.st_name));
          c_code buf d mt 2 st.st_entry;
          buf_add buf "}\n\n";
          buf_add buf
            (Printf.sprintf "static void %s(PRT_SM_CONTEXT *ctx)\n{\n"
               (fun_name "EXIT" mt st.st_name));
          c_code buf d mt 2 st.st_exit;
          buf_add buf "}\n\n")
        mt.mt_states;
      Array.iter
        (fun (name, code) ->
          buf_add buf
            (Printf.sprintf "static void %s(PRT_SM_CONTEXT *ctx)\n{\n"
               (fun_name "ACTION" mt name));
          c_code buf d mt 2 code;
          buf_add buf "}\n\n")
        mt.mt_actions)
    d.dr_machines

let bitmap_initializer bools =
  (* deferred sets are packed 32 events per word, as a C initializer *)
  let words = (Array.length bools + 31) / 32 in
  let packed = Array.make (max words 1) 0 in
  Array.iteri (fun i b -> if b then packed.(i / 32) <- packed.(i / 32) lor (1 lsl (i mod 32))) bools;
  "{ "
  ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "0x%08x") packed))
  ^ " }"

(* [empty] fills the slots of events with no entry: [P_NO_TARGET] in the
   state-index tables, [NULL] in the function-pointer table *)
let transition_initializer ?(empty = "P_NO_TARGET") table to_name =
  "{ "
  ^ String.concat ", "
      (Array.to_list (Array.map (function None -> empty | Some i -> to_name i) table))
  ^ " }"

let emit_tables buf d =
  Array.iter
    (fun mt ->
      let mname = sanitize mt.mt_name in
      Array.iteri
        (fun si st ->
          buf_add buf
            (Printf.sprintf "static const PRT_STATE_DECL P_STATEDECL_%s_%d = {\n" mname si);
          buf_add buf (Printf.sprintf "  .name = \"%s\",\n" st.st_name);
          buf_add buf
            (Printf.sprintf "  .deferred = %s,\n" (bitmap_initializer st.st_deferred));
          buf_add buf
            (Printf.sprintf "  .steps = %s,\n"
               (transition_initializer st.st_steps (state_enum mt)));
          buf_add buf
            (Printf.sprintf "  .calls = %s,\n"
               (transition_initializer st.st_calls (state_enum mt)));
          buf_add buf
            (Printf.sprintf "  .actions = %s,\n"
               (transition_initializer ~empty:"NULL" st.st_actions (fun i ->
                    fun_name "ACTION" mt (fst mt.mt_actions.(i)))));
          buf_add buf (Printf.sprintf "  .entry = %s,\n" (fun_name "ENTRY" mt st.st_name));
          buf_add buf (Printf.sprintf "  .exit = %s,\n" (fun_name "EXIT" mt st.st_name));
          buf_add buf "};\n")
        mt.mt_states;
      buf_add buf
        (Printf.sprintf "static const PRT_STATE_DECL *P_STATES_TBL_%s[] = { " mname);
      Array.iteri
        (fun si _ -> buf_add buf (Printf.sprintf "&P_STATEDECL_%s_%d, " mname si))
        mt.mt_states;
      buf_add buf "};\n";
      buf_add buf
        (Printf.sprintf
           "static const PRT_MACHINE_DECL P_MACHINEDECL_%s = {\n\
           \  .name = \"%s\",\n\
           \  .var_count = %d,\n\
           \  .state_count = %d,\n\
           \  .states = P_STATES_TBL_%s,\n\
            };\n\n"
           mname mt.mt_name (Array.length mt.mt_vars) (Array.length mt.mt_states) mname))
    d.dr_machines;
  buf_add buf "static const PRT_MACHINE_DECL *P_MACHINES_TBL[] = {\n";
  Array.iter
    (fun mt -> buf_add buf (Printf.sprintf "  &P_MACHINEDECL_%s,\n" (sanitize mt.mt_name)))
    d.dr_machines;
  buf_add buf "};\n\n";
  buf_add buf
    (Printf.sprintf
       "const PRT_DRIVER_DECL P_DRIVER = {\n\
       \  .name = \"%s\",\n\
       \  .event_count = P_EVENT_COUNT,\n\
       \  .machine_count = P_MACHINE_COUNT,\n\
       \  .machines = P_MACHINES_TBL,\n\
       \  .main_machine = %s,\n\
        };\n"
       d.dr_name
       (match d.dr_main with None -> "P_NO_TARGET" | Some i -> machine_enum d i))

(** Emit the complete C translation unit for a lowered driver. *)
let emit (d : driver) : string =
  let buf = Buffer.create 8192 in
  buf_add buf
    (Printf.sprintf
       "/* Generated by pcaml (P compiler) — driver %s.\n\
       \ * Table-driven state machine code in the style of\n\
       \ * \"P: Safe Asynchronous Event-Driven Programming\", PLDI 2013, section 4.\n\
       \ * Link against the P runtime and the driver-specific foreign functions. */\n\n\
        #include \"p_runtime.h\"\n\n"
       d.dr_name);
  emit_enums buf d;
  (* foreign function prototypes: one extra leading void* argument pointing at
     the external memory of the calling machine, as required by section 4 *)
  Array.iter
    (fun mt ->
      Array.iter
        (fun fs ->
          buf_add buf
            (Printf.sprintf "extern PRT_VALUE %s(void *external_memory%s);\n"
               (sanitize fs.fs_name)
               (String.concat ""
                  (List.map (fun _ -> ", PRT_VALUE") fs.fs_params))))
        mt.mt_foreigns)
    d.dr_machines;
  buf_add buf "\n";
  emit_functions buf d;
  emit_tables buf d;
  Buffer.contents buf
