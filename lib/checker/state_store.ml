(** The pluggable seen-set of the exploration engines.

    Every systematic engine asks one question millions of times: "was this
    state seen before, and at what minimal budget?" This module answers it
    behind one [claim] call with two interchangeable representations:

    - {b Exact} — the ground truth: a hashtable keyed on the full 16-byte
      MD5 digest string, mapping to [(dense state index, minimal budget
      spent)]. Under a multi-worker engine it splits into 2^6
      mutex-guarded shards keyed on the digest's first byte (the blocked
      acquisition is profiled as the [Shard_lock] phase). Collision
      probability is MD5's (~n²/2¹²⁹): zero for any feasible run.

    - {b Compact} — hash compaction: an open-addressing table over 63-bit
      integer fingerprints in an {e off-heap} [Bigarray] arena. One slot
      is one 64-bit word packing [(47-bit fingerprint tag, 15-bit
      saturating minimal spent)]; claims are lock-free CAS on the slot
      word (C11 atomics via {!store_stubs.c} — the arena never moves, so
      raw atomics on it are sound). Zero per-state heap allocation, zero
      locks, zero GC pressure: the whole table is invisible to the OCaml
      GC. The price is a tag-collision probability of about
      n²/2⁴⁸ expected merged pairs (reported as [omission_bound]) — ~0.004
      at a million states, which is why the differential tests can demand
      byte-identical triples vs Exact and pass.

    The [claim] contract (all representations):
    - [New]: the caller now owns this state — exactly one claimant per
      state per run, even under concurrent claims (CAS-arbitrated).
    - [Dup sidx]: seen before at a budget ≤ [spent]; [sidx] is the dense
      state index recorded at first claim, or [-1] if this representation
      does not keep one (compact without [need_sidx]).
    - [Reexpand sidx]: seen before but only at a strictly larger budget;
      the record was lowered to [spent] and the caller should re-expand.
    - [Dropped]: the fixed-capacity arena is full; the caller must mark
      the run truncated (exactly like exhausting [max_states]).

    Both representations are single-winner under any number of workers. *)

type kind = Exact | Compact

let kind_to_string = function
  | Exact -> "exact"
  | Compact -> "compact"

let kind_of_string = function
  | "exact" -> Ok Exact
  | "compact" -> Ok Compact
  | s -> Error (Printf.sprintf "unknown state store %S (expected exact|compact)" s)

type claim = New | Dup of int | Reexpand of int | Dropped

(* ------------------------------------------------------------------ *)
(* The off-heap arena and its atomic primitives                        *)
(* ------------------------------------------------------------------ *)

type arena = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external arena_get : arena -> int -> int = "pcaml_store_get" [@@noalloc]
external arena_set : arena -> int -> int -> unit = "pcaml_store_set" [@@noalloc]

external arena_cas : arena -> int -> int -> int -> bool = "pcaml_store_cas"
  [@@noalloc]

let make_arena words =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout words in
  Bigarray.Array1.fill a 0L;
  a

(* ------------------------------------------------------------------ *)
(* Exact                                                               *)
(* ------------------------------------------------------------------ *)

type shard = { sh_lock : Mutex.t; sh_tbl : (string, int * int) Hashtbl.t }

let shard_bits = 6
let shard_count = 1 lsl shard_bits

type exact = {
  e_shards : shard array;  (* length 1 (single worker, no locking) or 2^6 *)
  e_profile : P_obs.Profile.t;
  e_contention : int array;  (* per worker: blocked shard acquisitions *)
}

let exact_claim (e : exact) ~worker ~digest ~spent ~new_sidx : claim =
  let locked = Array.length e.e_shards > 1 in
  let sh =
    if locked then
      e.e_shards.(Char.code (String.unsafe_get digest 0) land (shard_count - 1))
    else e.e_shards.(0)
  in
  if locked && not (Mutex.try_lock sh.sh_lock) then begin
    e.e_contention.(worker) <- e.e_contention.(worker) + 1;
    (* only the *blocked* acquisition is profiled: the uncontended try-lock
       above is the hot path and stays span-free *)
    let pt0 = P_obs.Profile.start e.e_profile in
    Mutex.lock sh.sh_lock;
    P_obs.Profile.record e.e_profile ~worker P_obs.Profile.Shard_lock ~t0:pt0
  end;
  let decision =
    match Hashtbl.find_opt sh.sh_tbl digest with
    | None ->
      Hashtbl.replace sh.sh_tbl digest (new_sidx, spent);
      New
    | Some (sidx, best) when best <= spent -> Dup sidx
    | Some (sidx, _) ->
      (* reached again with strictly smaller budget spent: the spare budget
         can reach new successors, so lower the record and re-expand *)
      Hashtbl.replace sh.sh_tbl digest (sidx, spent);
      Reexpand sidx
  in
  if locked then Mutex.unlock sh.sh_lock;
  decision

(* Footprint estimate, documented in DESIGN.md ("State storage"): per
   entry one bucket cons (4 words), the 16-byte digest string (4 words)
   and the (sidx, spent) tuple (3 words), plus the live bucket array. *)
let exact_summary_parts (e : exact) =
  Array.fold_left
    (fun (entries, buckets) sh ->
      let st = Hashtbl.stats sh.sh_tbl in
      (entries + st.Hashtbl.num_bindings, buckets + st.Hashtbl.num_buckets))
    (0, 0) e.e_shards

(* ------------------------------------------------------------------ *)
(* Compact                                                             *)
(* ------------------------------------------------------------------ *)

let spent_bits = 15
let spent_mask = (1 lsl spent_bits) - 1  (* 32767 = "spent >= 32767" *)
let tag_mask = (1 lsl 47) - 1

(* The spent field saturates at [spent_mask]; engines refuse to pair the
   compact store with a budget that could reach it (see Engine). *)
let max_exact_spent = spent_mask - 1

type compact = {
  c_slots : arena;
  c_mask : int;  (* capacity - 1; capacity is a power of two *)
  c_probe_limit : int;
  c_sidx : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t option;
      (* dense state indices for observer support; single-worker engines
         only — the parallel driver neither needs nor maintains them *)
  c_new : int array;  (* per worker: slots claimed *)
  c_retries : int array;  (* per worker: CAS retries (contention) *)
  mutable c_dropped : bool;
}

let tag_of fp =
  let tg = (fp lsr 16) land tag_mask in
  if tg = 0 then 1 else tg

let compact_sidx_at c i =
  match c.c_sidx with
  | None -> -1
  | Some a -> Int32.to_int (Bigarray.Array1.unsafe_get a i)

let compact_claim (c : compact) ~worker ~fp ~spent ~new_sidx : claim =
  let sp = if spent >= spent_mask then spent_mask else spent in
  let tag = tag_of fp in
  let word = (tag lsl spent_bits) lor sp in
  let rec probe i dist =
    if dist > c.c_probe_limit then begin
      c.c_dropped <- true;
      Dropped
    end
    else
      let w = arena_get c.c_slots i in
      if w = 0 then
        if arena_cas c.c_slots i 0 word then begin
          c.c_new.(worker) <- c.c_new.(worker) + 1;
          (match c.c_sidx with
          | None -> ()
          | Some a -> Bigarray.Array1.unsafe_set a i (Int32.of_int new_sidx));
          New
        end
        else begin
          (* another worker just claimed this slot: re-read it — it may
             even be our own state *)
          c.c_retries.(worker) <- c.c_retries.(worker) + 1;
          probe i dist
        end
      else if w lsr spent_bits = tag then begin
        let best = w land spent_mask in
        if best <= sp then Dup (compact_sidx_at c i)
        else if arena_cas c.c_slots i w ((tag lsl spent_bits) lor sp) then
          Reexpand (compact_sidx_at c i)
        else begin
          c.c_retries.(worker) <- c.c_retries.(worker) + 1;
          probe i dist
        end
      end
      else probe ((i + 1) land c.c_mask) (dist + 1)
  in
  probe (fp land c.c_mask) 0

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type repr = R_exact of exact | R_compact of compact

type t = { kind : kind; repr : repr; capacity : int }

let kind_of t = t.kind
let kind_name t = kind_to_string t.kind

(** Exact keys on the digest string; the compact store keys on the
    integer fingerprint alone and never touches the string. *)
let needs_string t = t.kind = Exact

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(** Compact slot count sized from the state budget: 1.5 slots per
    possible state (≤ 67% load at a full run), clamped to a 256 MiB arena
    so an uncapped run cannot demand unbounded memory — past the clamp the
    store answers [Dropped] and the run reports truncation, exactly like
    exhausting [max_states]. *)
let default_capacity ~kind ~max_states =
  match kind with
  | Exact -> 0
  | Compact ->
    if max_states >= 1 lsl 24 then 1 lsl 25
    else pow2_at_least (max 4096 (max_states + (max_states lsr 1) + 64)) 4096

let create ?capacity ?(need_sidx = false) ?(profile = P_obs.Profile.null)
    ~kind ~workers ~max_states () : t =
  let workers = max 1 workers in
  let capacity =
    match capacity with
    | Some c -> pow2_at_least (max 1024 c) 1024
    | None -> default_capacity ~kind ~max_states
  in
  match kind with
  | Exact ->
    let n = if workers > 1 then shard_count else 1 in
    let shards =
      Array.init n (fun _ ->
          { sh_lock = Mutex.create ();
            sh_tbl = Hashtbl.create (if n = 1 then 4096 else 512) })
    in
    { kind;
      repr = R_exact { e_shards = shards; e_profile = profile; e_contention = Array.make workers 0 };
      capacity = 0 }
  | Compact ->
    if need_sidx && workers > 1 then
      invalid_arg "State_store.create: compact sidx tracking is single-worker";
    let slots = make_arena capacity in
    let sidx =
      if need_sidx then begin
        let a =
          Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout capacity
        in
        Bigarray.Array1.fill a 0l;
        Some a
      end
      else None
    in
    { kind;
      repr =
        R_compact
          { c_slots = slots;
            c_mask = capacity - 1;
            c_probe_limit = min capacity 65536;
            c_sidx = sidx;
            c_new = Array.make workers 0;
            c_retries = Array.make workers 0;
            c_dropped = false };
      capacity }

(** Claim [digest]/[fp] at budget [spent] for [worker]. [new_sidx] is the
    dense index this state receives if the claim answers [New]; only
    sidx-tracking representations record it. Exact reads [digest] and
    ignores [fp]; the compact store reads [fp] and ignores [digest]. *)
let claim t ~worker ~digest ~fp ~spent ~new_sidx : claim =
  match t.repr with
  | R_exact e -> exact_claim e ~worker ~digest ~spent ~new_sidx
  | R_compact c -> compact_claim c ~worker ~fp ~spent ~new_sidx

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_kind : string;
  s_capacity : int;  (** slots (compact), buckets (exact) *)
  s_entries : int;  (** states recorded *)
  s_bytes : int;  (** measured (arena) or estimated (exact) footprint *)
  s_occupancy : float;  (** entries / capacity *)
  s_omission_bound : float;
      (** expected states wrongly merged by hashing: 0 for exact, the
          n²/2⁴⁸ tag birthday bound for compact *)
  s_contention : int;  (** exact: blocked shard-lock acquisitions *)
  s_cas_retries : int;  (** compact: lost CAS races *)
  s_dropped : bool;  (** the arena filled up; the run is truncated *)
}

let sum = Array.fold_left ( + ) 0

let summary t : summary =
  match t.repr with
  | R_exact e ->
    let entries, buckets = exact_summary_parts e in
    { s_kind = kind_to_string t.kind;
      s_capacity = buckets;
      s_entries = entries;
      s_bytes = ((entries * 11) + buckets) * (Sys.word_size / 8);
      s_occupancy =
        (if buckets = 0 then 0.0 else float_of_int entries /. float_of_int buckets);
      s_omission_bound = 0.0;
      s_contention = sum e.e_contention;
      s_cas_retries = 0;
      s_dropped = false }
  | R_compact c ->
    let entries = sum c.c_new in
    let n = float_of_int entries in
    { s_kind = kind_to_string t.kind;
      s_capacity = t.capacity;
      s_entries = entries;
      s_bytes =
        (t.capacity * 8)
        + (match c.c_sidx with None -> 0 | Some _ -> t.capacity * 4);
      s_occupancy = n /. float_of_int t.capacity;
      s_omission_bound = n *. n /. 2.8e14 (* n²/2⁴⁸ tag birthday bound *);
      s_contention = 0;
      s_cas_retries = sum c.c_retries;
      s_dropped = c.c_dropped }

(** Live footprint in bytes, cheap enough for a telemetry probe: the
    exact store is estimated from [Hashtbl.length] alone (buckets ≈
    entries at the stdlib's resize load), O(1) per sample; [summary]
    reports the measured bucket count at end of run. *)
let live_bytes t =
  match t.repr with
  | R_exact e ->
    let entries =
      Array.fold_left (fun n sh -> n + Hashtbl.length sh.sh_tbl) 0 e.e_shards
    in
    entries * 12 * (Sys.word_size / 8)
  | R_compact c ->
    (t.capacity * 8) + (match c.c_sidx with None -> 0 | Some _ -> t.capacity * 4)

let json_of_summary (s : summary) : P_obs.Json.t =
  P_obs.Json.Obj
    [ ("kind", P_obs.Json.String s.s_kind);
      ("capacity", P_obs.Json.Int s.s_capacity);
      ("entries", P_obs.Json.Int s.s_entries);
      ("bytes", P_obs.Json.Int s.s_bytes);
      ("occupancy", P_obs.Json.Float s.s_occupancy);
      ("omission_bound", P_obs.Json.Float s.s_omission_bound);
      ("contention", P_obs.Json.Int s.s_contention);
      ("cas_retries", P_obs.Json.Int s.s_cas_retries);
      ("dropped", P_obs.Json.Bool s.s_dropped) ]
