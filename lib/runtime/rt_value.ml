(** Runtime values: the mutable twin of {!P_semantics.Value} with all names
    resolved to the dense indices of the driver tables. The runtime is an
    independent implementation of the semantics — it shares no execution
    code with the verifier, mirroring the paper's generated-C-plus-runtime
    versus Zing split — which is what makes the d=0 equivalence tests
    meaningful. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Event of int  (** event id *)
  | Machine of int  (** machine instance handle *)

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Event e -> Fmt.pf ppf "evt#%d" e
  | Machine m -> Fmt.pf ppf "#%d" m

let to_value (driver : P_compile.Tables.driver) : t -> P_semantics.Value.t = function
  | Null -> Null
  | Bool b -> Bool b
  | Int i -> Int i
  | Event e -> Event (P_syntax.Names.Event.of_string (fst driver.dr_events.(e)))
  | Machine m -> Machine (P_semantics.Mid.of_int m)

exception Type_error of string

let truth = function
  | Bool b -> b
  | v -> raise (Type_error (Fmt.str "expected a boolean, found %a" pp v))

let unop (op : P_compile.Tables.unop) v : t =
  match (op, v) with
  | _, Null -> Null
  | P_compile.Tables.Not, Bool b -> Bool (not b)
  | P_compile.Tables.Neg, Int i -> Int (-i)
  | _ -> raise (Type_error "ill-typed unary operation")

let binop (op : P_compile.Tables.binop) a b : t =
  let module T = P_compile.Tables in
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ -> (
    match (op, a, b) with
    | T.Add, Int x, Int y -> Int (x + y)
    | T.Sub, Int x, Int y -> Int (x - y)
    | T.Mul, Int x, Int y -> Int (x * y)
    | T.Div, Int x, Int y ->
      if y = 0 then raise (Type_error "division by zero") else Int (x / y)
    | T.Mod, Int x, Int y ->
      if y = 0 then raise (Type_error "modulo by zero") else Int (x mod y)
    | T.And, Bool x, Bool y -> Bool (x && y)
    | T.Or, Bool x, Bool y -> Bool (x || y)
    | T.Lt, Int x, Int y -> Bool (x < y)
    | T.Le, Int x, Int y -> Bool (x <= y)
    | T.Gt, Int x, Int y -> Bool (x > y)
    | T.Ge, Int x, Int y -> Bool (x >= y)
    | T.Eq, x, y -> Bool (equal x y)
    | T.Neq, x, y -> Bool (not (equal x y))
    | _ -> raise (Type_error "ill-typed binary operation"))
