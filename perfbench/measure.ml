(* Timing, statistics and output helpers shared by the workloads. *)

module Json = P_obs.Json

let now_ns () = Int64.to_int (P_obs.Mclock.now_ns ())
let s_of_ns ns = float_of_int ns /. 1e9

(* Nearest-rank percentile of a sorted, non-empty sample. *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Measure.median: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [repeat ~seconds f]: run [f] once, and again while another run is
   expected to end within [seconds] of the first start; returns every
   result in order. *)
let repeat ~seconds f =
  let t0 = now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go acc last =
    let elapsed = now_ns () - t0 in
    if acc <> [] && elapsed + last > budget then List.rev acc
    else begin
      let s = now_ns () in
      let r = f () in
      go (r :: acc) (now_ns () - s)
    end
  in
  go [] 0

let words_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Bytes allocated by this domain since the program started. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Sampled spans, written as a Chrome trace at exit                    *)
(* ------------------------------------------------------------------ *)

(* Spans of one sampled node or request share [id]; [parent] names the
   span that caused it. Held in memory until [write_chrome]. *)
type span = { name : string; id : int; parent : string; t0 : int; t1 : int }

let spans : span list ref = ref []
let sample_every = 1000

let span ~id ~parent name t0 t1 = spans := { name; id; parent; t0; t1 } :: !spans

let write_chrome path =
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.String "X");
        ("ts", Json.Float (float_of_int s.t0 /. 1e3));
        ("dur", Json.Float (float_of_int (s.t1 - s.t0) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.String s.parent) ]) ]
  in
  let doc = Json.Obj [ ("traceEvents", Json.List (List.rev_map event !spans)) ] in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* One workload run: the correctness verdict, the operation counts, and
   the metrics by name with their units. [failures] explains a false
   [correct]. *)
type result = {
  correct : bool;
  failures : string list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
             r.metrics) ) ]

(* Collects correctness failures while a workload runs. *)
type checks = { mutable failed_checks : string list }

let checks () = { failed_checks = [] }

let check c ok fmt =
  Printf.ksprintf (fun msg -> if not ok then c.failed_checks <- msg :: c.failed_checks) fmt

let finish c ~attempted ~failed metrics =
  let failures = List.rev c.failed_checks in
  { correct = failures = []; failures; attempted; failed; metrics }
