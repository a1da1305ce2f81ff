(** Global configurations: the map [M] from machine identifiers to machine
    configurations, plus the deterministic identifier allocator. A machine
    identifier smaller than [next_id] that is absent from [machines] belongs
    to a deleted machine ([M[id] = ⊥] in the paper) — sending to it is the
    SEND-FAIL2 error. *)

type t = {
  machines : Machine.t Mid.Map.t;
  next_id : Mid.t;
  fseq : int;
      (** Fault-point counter: number of fault points consumed on the path
          to this configuration. Stays 0 when no fault plan is active, so
          fault-free state identity is unchanged. With faults on, it is part
          of state identity (two configurations that look alike but sit at
          different fault indices have different futures). *)
}

let empty = { machines = Mid.Map.empty; next_id = Mid.first; fseq = 0 }

let find t id = Mid.Map.find_opt id t.machines

let mem t id = Mid.Map.mem id t.machines

let is_deleted t id = Mid.compare id t.next_id < 0 && not (mem t id)

(* Every machine enters a configuration through this function, which makes
   it the one place that must invalidate the per-machine digest memo: a
   rebuilt machine is a [{ m with ... }] copy and would otherwise carry its
   parent's (stale) memo. After the reset, a non-empty [digest_memo] can
   only be observed on a machine physically shared with a configuration
   that was already digested — exactly the sharing guarantee the checker's
   incremental fingerprint relies on. *)
let update t id machine =
  machine.Machine.digest_memo <- "";
  { t with machines = Mid.Map.add id machine t.machines }

let remove t id = { t with machines = Mid.Map.remove id t.machines }

let alloc t = (t.next_id, { t with next_id = Mid.next t.next_id })

let live_ids t = Mid.Map.fold (fun id _ acc -> id :: acc) t.machines [] |> List.rev

let live_count t = Mid.Map.cardinal t.machines

let fold f t acc = Mid.Map.fold f t.machines acc

(* [update] goes through the persistent [Mid.Map.add], so every binding of
   the old map except the updated one is physically shared by the new map.
   One atomic block therefore yields a configuration whose machines are
   [==] to the parent's except for the few the block touched (the runner,
   a send target, a created machine) — the invariant the checker's
   per-machine fingerprint cache keys on. *)
let changed_machines ~before ~after =
  Mid.Map.fold
    (fun id m acc ->
      match Mid.Map.find_opt id before.machines with
      | Some m' when m' == m -> acc
      | _ -> (id, m) :: acc)
    after.machines []
  |> List.rev

let compare a b =
  match Mid.compare a.next_id b.next_id with
  | 0 -> (
    match Int.compare a.fseq b.fseq with
    | 0 -> Mid.Map.compare Machine.compare a.machines b.machines
    | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.iter_bindings Mid.Map.iter (fun ppf (_, m) -> Machine.pp ppf m))
    t.machines
