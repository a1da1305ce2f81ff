(** Serializing P traces ({!P_semantics.Trace}) — checker counterexamples
    and the live runtime alike — to a structured sink: each trace item
    becomes one instant event on the thread lane of its principal machine.
    A checker trace is timestamped by its position (logical traces — the
    position *is* the time); the runtime's {!hook} stamps real monotonic
    time. Either opens in Perfetto with one lane per machine and the
    message-passing history laid out left to right. *)

module Trace = P_semantics.Trace
module Mid = P_semantics.Mid
module Value = P_semantics.Value
open P_syntax

let cat = "ptrace"

let mid_json m = Json.Int (Mid.to_int m)

(* (name, principal machine, args) for one item. The args carry every field
   so the tests can reconstruct the item from the JSON alone. *)
let encode (item : Trace.item) : string * int * (string * Json.t) list =
  match item with
  | Trace.Created { creator; created; kind } ->
    ( Fmt.str "create %a" Names.Machine.pp kind,
      Mid.to_int created,
      [ ("kind", Json.String "created");
        ("creator", match creator with None -> Json.Null | Some c -> mid_json c);
        ("created", mid_json created);
        ("machine", Json.String (Names.Machine.to_string kind)) ] )
  | Trace.Sent { src; dst; event; payload } ->
    ( Fmt.str "send %a" Names.Event.pp event,
      Mid.to_int src,
      [ ("kind", Json.String "sent");
        ("src", mid_json src);
        ("dst", mid_json dst);
        ("event", Json.String (Names.Event.to_string event));
        ("payload", Json.String (Value.to_string payload)) ] )
  | Trace.Dequeued { mid; event; payload } ->
    ( Fmt.str "dequeue %a" Names.Event.pp event,
      Mid.to_int mid,
      [ ("kind", Json.String "dequeued");
        ("mid", mid_json mid);
        ("event", Json.String (Names.Event.to_string event));
        ("payload", Json.String (Value.to_string payload)) ] )
  | Trace.Raised { mid; event } ->
    ( Fmt.str "raise %a" Names.Event.pp event,
      Mid.to_int mid,
      [ ("kind", Json.String "raised");
        ("mid", mid_json mid);
        ("event", Json.String (Names.Event.to_string event)) ] )
  | Trace.Entered { mid; state } ->
    ( Fmt.str "enter %a" Names.State.pp state,
      Mid.to_int mid,
      [ ("kind", Json.String "entered");
        ("mid", mid_json mid);
        ("state", Json.String (Names.State.to_string state)) ] )
  | Trace.Popped { mid; state } ->
    ( "pop",
      Mid.to_int mid,
      [ ("kind", Json.String "popped");
        ("mid", mid_json mid);
        ( "state",
          match state with
          | None -> Json.Null
          | Some s -> Json.String (Names.State.to_string s) ) ] )
  | Trace.Deleted { mid } ->
    ( "delete",
      Mid.to_int mid,
      [ ("kind", Json.String "deleted"); ("mid", mid_json mid) ] )
  | Trace.Faulted { mid; fault } ->
    ( Fmt.str "fault %s" fault,
      Mid.to_int mid,
      [ ("kind", Json.String "faulted");
        ("mid", mid_json mid);
        ("fault", Json.String fault) ] )

(** A live trace hook (for [P_runtime.Api.set_trace_hook]): each item
    becomes an instant event timestamped on the monotonic clock relative to
    the hook's creation. The runtime executes in real time, so unlike
    {!emit}'s logical positions these timestamps are meaningful durations. *)
let hook (sink : Sink.t) : Trace.item -> unit =
  let t0_us = Mclock.now_us () in
  fun item ->
    if Sink.enabled sink then begin
      let name, tid, args = encode item in
      Sink.instant sink ~cat ~tid ~args ~name ~ts_us:(Mclock.now_us () -. t0_us) ()
    end

(** Emit a whole trace; item [i] lands at [t0_us + i] microseconds. *)
let emit sink ?(t0_us = 0.0) (t : Trace.t) : unit =
  if Sink.enabled sink then
    List.iteri
      (fun i item ->
        let name, tid, args = encode item in
        Sink.instant sink ~cat ~tid ~args ~name ~ts_us:(t0_us +. float_of_int i) ())
      t

(** A canonical comparison key for an item — the same string the JSON
    round-trip reconstructs with {!key_of_args}. *)
let key (item : Trace.item) : string =
  let _, _, args = encode item in
  String.concat "|"
    (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) args)

(** Rebuild an item's comparison key from the [args] object of a parsed
    trace event; [None] if the event is not a P trace item. *)
let key_of_args (args : Json.t) : string option =
  match args with
  | Json.Obj fields
    when List.exists (fun (k, _) -> String.equal k "kind") fields ->
    Some
      (String.concat "|"
         (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) fields))
  | _ -> None

(** The comparison keys of the externally observable items of a trace, in
    order (see {!P_semantics.Trace.observable}). *)
let observable_keys (t : Trace.t) : string list =
  List.map key (Trace.observable t)

(* The item kinds {!P_semantics.Trace.observable} keeps. *)
let observable_kind = function
  | "created" | "sent" | "dequeued" | "deleted" -> true
  | _ -> false

(** The other side of the round trip: from a parsed Chrome trace document,
    the comparison keys of the observable P trace items, in timestamp
    order. Ignores lifecycle spans and other non-[ptrace] events. *)
let observable_keys_of_json (doc : Json.t) : string list =
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some evs -> evs
    | None -> []
  in
  events
  |> List.filter_map (fun ev ->
         match
           ( Option.bind (Json.member "cat" ev) Json.to_str,
             Option.bind (Json.member "ph" ev) Json.to_str,
             Option.bind (Json.member "ts" ev) Json.to_float,
             Json.member "args" ev )
         with
         | Some c, Some "i", Some ts, Some args when String.equal c cat -> (
           match
             Option.bind (Json.member "kind" args) Json.to_str
           with
           | Some k when observable_kind k ->
             Option.map (fun key -> (ts, key)) (key_of_args args)
           | _ -> None)
         | _ -> None)
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd
