(** Runtime values: the mutable engine's twin of {!P_semantics.Value}, with
    names resolved to table indices. The runtime shares no execution code
    with the verifier — mirroring the paper's generated-C-plus-runtime vs
    Zing split — which is what makes the d=0 equivalence tests meaningful. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Event of int  (** event id *)
  | Machine of int  (** machine instance handle *)

val equal : t -> t -> bool
val pp : t Fmt.t

val to_value : P_compile.Tables.driver -> t -> P_semantics.Value.t
(** The interpreter's view of a runtime value: event ids become names
    through [driver], handles become {!P_semantics.Mid}s. *)

exception Type_error of string

val truth : t -> bool
(** @raise Type_error on non-booleans, including [⊥]. *)

val unop : P_compile.Tables.unop -> t -> t
val binop : P_compile.Tables.binop -> t -> t -> t
(** [⊥] propagates; ill-typed applications raise {!Type_error}. *)
