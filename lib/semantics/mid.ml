(** Machine identifiers: references to dynamically created machine instances.

    Identifiers are allocated deterministically in creation order, which
    makes global configurations directly comparable across schedules that
    create machines in the same order. The model checker keys states on
    these identifiers as they are ({!P_checker.Canon}): configurations that
    differ only in which identifier plays which role stay distinct. *)

type t = int

let first = 0
let next t = t + 1
let equal = Int.equal
let compare = Int.compare
let hash (t : t) = t
let to_int t = t
let of_int t = t
let pp ppf t = Fmt.pf ppf "#%d" t

module Map = Map.Make (Int)
module Set = Set.Make (Int)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
