(** Incremental state fingerprinting.

    The seen-set key of every engine used to be [Canon.digest], which
    re-encodes every machine of the configuration and MD5s the whole buffer
    on each query — O(state size) work per transition, even though one
    atomic block touches at most a couple of machines. This module keys a
    digest cache on *physical* machine identity: {!P_semantics.Step} updates
    configurations through {!P_semantics.Config.update}, whose persistent
    map shares every untouched machine between parent and successor, so a
    cached per-machine digest is hit for every machine the block did not
    touch and the successor fingerprint costs O(machines-changed) encoding
    work plus one short MD5 combine.

    The incremental fingerprint of a configuration is

    {v MD5( varint next_id · varint live_count
            · md5(machine_1) … md5(machine_k)      (in identifier order)
            · varint |extra| · varint extra_i … ) v}

    where [md5(machine_i)] is {!Canon.machine_digest} of that binding. The
    per-machine digests are fixed-width, so the combine is injective in
    them; the whole key is as collision-resistant as [Canon.digest] itself
    (both stand on MD5). Incremental and reference digests of the same
    configuration are *different strings* — an engine must use one mode for
    a whole run, which they do.

    The "cache" is the machine value itself: {!P_semantics.Machine.t}
    carries a mutable [digest_memo] slot that [Config.update] — the one
    function through which every (re)built machine enters a configuration
    — resets to [""]. A non-empty memo is therefore only ever observed on
    a machine physically shared, untouched, with an already-digested
    configuration, and reading it is a plain field load. An external table
    keyed on physical identity cannot do this cheaply: OCaml has no
    address-based hash, and a structural hash collapses the thousands of
    near-identical versions of each machine into a handful of buckets.
    (Under the parallel engine two domains can race to fill a memo; both
    write the same canonical digest string, so either outcome is correct.
    Each context — the engines keep one per worker domain — counts its own
    {!requests}, {!hits}, and {!misses}, and every lookup lands in exactly
    one of the latter two, so after the engine sums the per-worker
    counters, [hits + misses = requests] holds exactly for any number of
    domains; only the hit/miss *split* can vary run to run, by which
    domain wins a memo-fill race.)

    [Paranoid] computes both fingerprints for every query, returns the
    reference [Canon.digest] one, and checks the two stay in bijection: a
    violation means either an MD5 collision or a stale cache entry (i.e. a
    broken sharing guarantee), and is counted in {!collisions}. *)

module Config = P_semantics.Config
module Machine = P_semantics.Machine
module Mid = P_semantics.Mid

type mode = Incremental | Paranoid

let mode_to_string = function
  | Incremental -> "incremental"
  | Paranoid -> "paranoid"

let mode_of_string = function
  | "incremental" -> Ok Incremental
  | "paranoid" -> Ok Paranoid
  | s ->
    Error (Printf.sprintf "unknown fingerprint mode %S (expected incremental|paranoid)" s)

type t = {
  canon : Canon.t;
  mode : mode;
  buf : Buffer.t;
  (* paranoid-mode bijection witnesses: incremental <-> reference *)
  incr_to_full : (string, string) Hashtbl.t;
  full_to_incr : (string, string) Hashtbl.t;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

let create ?(mode = Incremental) tab =
  { canon = Canon.create tab;
    mode;
    buf = Buffer.create 256;
    incr_to_full = Hashtbl.create 64;
    full_to_incr = Hashtbl.create 64;
    requests = 0;
    hits = 0;
    misses = 0;
    collisions = 0 }

let mode t = t.mode
let requests t = t.requests
let hits t = t.hits
let misses t = t.misses
let collisions t = t.collisions

(* Same varint as Canon.add_int (zigzag, 7 bits per byte). *)
let add_int buf i =
  let rec go i =
    if i land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr i)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (i land 0x7f)));
      go (i lsr 7)
    end
  in
  go (if i < 0 then (-2 * i) - 1 else 2 * i)

let machine_digest t id (m : Machine.t) =
  t.requests <- t.requests + 1;
  let memo = m.Machine.digest_memo in
  if String.length memo <> 0 then begin
    t.hits <- t.hits + 1;
    memo
  end
  else begin
    t.misses <- t.misses + 1;
    let d = Canon.machine_digest t.canon id m in
    m.Machine.digest_memo <- d;
    d
  end

let incremental t (config : Config.t) (extra : int list) : string =
  Buffer.clear t.buf;
  add_int t.buf (Mid.to_int config.next_id);
  add_int t.buf (Config.live_count config);
  Config.fold (fun id m () -> Buffer.add_string t.buf (machine_digest t id m)) config ();
  add_int t.buf (List.length extra);
  List.iter (add_int t.buf) extra;
  (* mirrors Canon.digest: fault counter appended only when nonzero *)
  if config.fseq > 0 then add_int t.buf config.fseq;
  Digest.string (Buffer.contents t.buf)

(* ------------------------------------------------------------------ *)
(* Integer fingerprints (for the arena-backed state stores)            *)
(* ------------------------------------------------------------------ *)

(* Streaming 63-bit FNV-1a over the same byte stream as [incremental],
   finished with a splitmix-style avalanche so low bits are usable as
   table indices. Runs entirely on immediate native ints: no Buffer, no
   Digest string, no allocation per state. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x3bf29ce484222325 (* the 64-bit FNV basis folded to 62 bits *)

let fnv_byte h b = (h lxor b) * fnv_prime land max_int

let fnv_int h i =
  let h = ref h in
  let i = ref i in
  for _ = 0 to 7 do
    h := fnv_byte !h (!i land 0xff);
    i := !i lsr 8
  done;
  !h

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let finalize h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 land max_int in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb land max_int in
  h lxor (h lsr 31)

let digest t (config : Config.t) (extra : int list) : string =
  match t.mode with
  | Incremental -> incremental t config extra
  | Paranoid ->
    let inc = incremental t config extra in
    let full = Canon.digest t.canon config extra in
    (match Hashtbl.find_opt t.incr_to_full inc with
    | Some full' when not (String.equal full full') ->
      t.collisions <- t.collisions + 1
    | Some _ -> ()
    | None -> Hashtbl.add t.incr_to_full inc full);
    (match Hashtbl.find_opt t.full_to_incr full with
    | Some inc' when not (String.equal inc inc') ->
      t.collisions <- t.collisions + 1
    | Some _ -> ()
    | None -> Hashtbl.add t.full_to_incr full inc);
    full

(** A 63-bit integer fingerprint of [config], for the compact store.
    [Incremental] streams the per-machine digest cache straight into the
    hash with no per-state string; [Paranoid] hashes the reference digest
    string (keeping its bijection check), so every mode still keys on the
    same canonical encoding. *)
let digest_int t (config : Config.t) (extra : int list) : int =
  match t.mode with
  | Paranoid -> finalize (fnv_string fnv_basis (digest t config extra))
  | Incremental ->
    let h = fnv_int fnv_basis (Mid.to_int config.next_id) in
    let h = fnv_int h (Config.live_count config) in
    let h =
      Config.fold (fun id m h -> fnv_string h (machine_digest t id m)) config h
    in
    let h = fnv_int h (List.length extra) in
    let h = List.fold_left fnv_int h extra in
    (* mirrors Canon.digest: fault counter mixed in only when nonzero *)
    let h = if config.fseq > 0 then fnv_int h config.fseq else h in
    finalize h
