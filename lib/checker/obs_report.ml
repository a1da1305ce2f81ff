(** JSON rendering of verification results for [pc verify --stats-json]:
    the whole {!Verifier.report} plus (optionally) a metrics-registry dump,
    as one self-describing document. Hand-rolled on {!P_obs.Json} — the
    schema is documented in DESIGN.md ("Observability"). *)

module Json = P_obs.Json

let json_of_stats (s : Search.stats) : Json.t =
  Json.Obj
    ([ ("states", Json.Int s.states);
       ("transitions", Json.Int s.transitions);
       ("max_depth", Json.Int s.max_depth);
       ("truncated", Json.Bool s.truncated);
       ("faults", Json.Int s.faults);
       ("elapsed_s", Json.Float s.elapsed_s) ]
    @
    match s.store with
    | None -> []
    | Some st ->
      (* kind, capacity, occupancy, and measured bytes/state: the memory
         footprint of the seen set, next to the wall clock *)
      [ ("store", State_store.json_of_summary st);
        ( "store_bytes_per_state",
          Json.Float
            (if s.states = 0 then 0.0
             else
               float_of_int st.State_store.s_bytes /. float_of_int s.states) )
      ])

let json_of_safety (r : Search.result) : Json.t =
  let verdict_fields =
    match r.verdict with
    | Search.No_error -> [ ("verdict", Json.String "no_error") ]
    | Search.Error_found ce ->
      [ ("verdict", Json.String "error_found");
        ("error", Json.String (Fmt.str "%a" P_semantics.Errors.pp ce.error));
        ("depth", Json.Int ce.depth);
        ("trace_len", Json.Int (List.length ce.trace)) ]
  in
  Json.Obj (verdict_fields @ [ ("stats", json_of_stats r.stats) ])

let json_of_violation (v : Liveness.violation) : Json.t =
  match v with
  | Liveness.Private_divergence { mid; machine } ->
    Json.Obj
      [ ("kind", Json.String "private_divergence");
        ("machine", Json.String (Fmt.str "%a" P_syntax.Names.Machine.pp machine));
        ("mid", Json.Int (P_semantics.Mid.to_int mid)) ]
  | Liveness.Deferred_forever { mid; machine; event; payload } ->
    Json.Obj
      [ ("kind", Json.String "deferred_forever");
        ("machine", Json.String (Fmt.str "%a" P_syntax.Names.Machine.pp machine));
        ("mid", Json.Int (P_semantics.Mid.to_int mid));
        ("event", Json.String (Fmt.str "%a" P_syntax.Names.Event.pp event));
        ("payload", Json.String (Fmt.str "%a" P_semantics.Value.pp payload)) ]

let json_of_liveness (r : Liveness.result) : Json.t =
  Json.Obj
    [ ("violations", Json.List (List.map json_of_violation r.violations));
      ("explored_states", Json.Int r.explored_states);
      ("complete", Json.Bool r.complete);
      ("elapsed_s", Json.Float r.elapsed_s) ]

let json_of_report ?metrics ?profile (r : Verifier.report) : Json.t =
  let static =
    Json.Obj
      [ ("ok", Json.Bool (r.static_diagnostics = []));
        ( "diagnostics",
          Json.List
            (List.map
               (fun d ->
                 Json.String (Fmt.str "%a" P_static.Symtab.pp_diagnostic d))
               r.static_diagnostics) ) ]
  in
  let fields =
    [ ("static", static);
      ( "seed",
        match r.seed with None -> Json.Null | Some s -> Json.Int s );
      ( "domains",
        match r.domains with None -> Json.Null | Some d -> Json.Int d );
      ( "faults",
        match r.faults with
        | None -> Json.Null
        | Some p ->
          Json.Obj
            [ ("spec", Json.String (P_semantics.Fault.to_string p));
              ("seed", Json.Int p.P_semantics.Fault.seed) ] );
      ( "safety",
        match r.safety with None -> Json.Null | Some s -> json_of_safety s );
      ( "liveness",
        match r.liveness with
        | None -> Json.Null
        | Some l -> json_of_liveness l );
      ("clean", Json.Bool (Verifier.is_clean r));
      (* machine context stamps every stats document, so numbers compared
         across checkouts or hosts carry their provenance with them *)
      ("machine", P_obs.Machine_info.json ()) ]
  in
  let fields =
    match metrics with
    | None -> fields
    | Some reg -> fields @ [ ("metrics", P_obs.Metrics.dump reg) ]
  in
  let fields =
    match profile with
    | Some p when P_obs.Profile.enabled p ->
      fields @ [ ("profile", P_obs.Profile.summary_json p) ]
    | _ -> fields
  in
  Json.Obj fields

let write_channel oc json =
  output_string oc (Json.to_string_pretty json);
  output_char oc '\n'

let write_file path json =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc json)
