(** A producer/consumer pair over a bounded buffer implemented with
    credits. The producer may only send an [Item] when it holds a credit;
    the consumer returns a [Credit] per item consumed.

    Two P-specific aspects are on display:
    - the deduplicating queue append [⊕] would silently *drop* a second
      in-flight message with an identical payload, so the producer tags
      each item with a strictly increasing sequence number, and the
      consumer returns each credit tagged with the number of the item it
      consumed — exactly the counter-in-the-payload idiom the paper
      prescribes for this situation (section 3.1);
    - the consumer *defers* [Item] while it is busy digesting, exercising
      deferral under back-pressure.

    The consumer asserts that items arrive in order, and the producer that
    credits do: each credit's number is one more than the last one
    returned, so a credit lost to [⊕] (or duplicated) fails an assertion. *)

open P_syntax.Builder

let events =
  [ event "Item" ~payload:P_syntax.Ptype.Int;
    event "Credit" ~payload:P_syntax.Ptype.Int;
    event "Start" ~payload:P_syntax.Ptype.Machine_id;
    event "unit";
    event "digest" ]

let producer ~items ~credits =
  machine "Producer"
    ~vars:
      [ var_decl "consumer" P_syntax.Ptype.Machine_id;
        var_decl "credits" P_syntax.Ptype.Int;
        var_decl "seq" P_syntax.Ptype.Int;
        var_decl "returned" P_syntax.Ptype.Int ]
    [ state "Init"
        ~entry:
          (seq
             [ new_ "consumer" "Consumer" [];
               send (v "consumer") "Start" ~payload:this;
               assign "credits" (int credits);
               assign "seq" (int 0);
               assign "returned" (int 0);
               raise_ "unit" ]);
      state "Produce"
        ~entry:
          (if_
             (v "seq" < int items && v "credits" > int 0)
             (seq
                [ assign "credits" (v "credits" - int 1);
                  assign "seq" (v "seq" + int 1);
                  send (v "consumer") "Item" ~payload:(v "seq");
                  raise_ "unit" ])
             skip);
      state "GotCredit"
        ~entry:
          (seq
             [ assert_ (arg == v "returned" + int 1);
               assign "returned" arg;
               assign "credits" (v "credits" + int 1);
               raise_ "unit" ]) ]
    ~steps:
      [ ("Init", "unit", "Produce");
        ("Produce", "unit", "Produce");
        ("Produce", "Credit", "GotCredit");
        ("GotCredit", "unit", "Produce") ]

let consumer =
  machine "Consumer"
    ~vars:
      [ var_decl "producer" P_syntax.Ptype.Machine_id;
        var_decl "expected" P_syntax.Ptype.Int ]
    [ state "Boot" ~entry:skip;
      state "Ready" ~entry:skip;
      (* while digesting one item, further items are deferred: back-pressure *)
      state "Digesting" ~defer:[ "Item" ]
        ~entry:
          (seq
             [ assign "expected" (v "expected" + int 1);
               assert_ (arg == v "expected");
               send (v "producer") "Credit" ~payload:(v "expected");
               raise_ "digest" ]) ]
    ~steps:
      [ ("Boot", "Start", "Setup");
        ("Ready", "Item", "Digesting");
        ("Digesting", "digest", "Ready") ]

let consumer =
  let m = consumer in
  { m with
    P_syntax.Ast.states =
      m.P_syntax.Ast.states
      @ [ state "Setup"
            ~entry:(seq [ assign "producer" arg; assign "expected" (int 0); raise_ "unit" ])
        ];
    P_syntax.Ast.steps = m.P_syntax.Ast.steps @ [ step ("Setup", "unit", "Ready") ] }

(** Closed producer/consumer program: [items] items through a buffer of
    [credits] credits. *)
let program ?(items = 6) ?(credits = 2) () =
  program ~events ~machines:[ producer ~items ~credits; consumer ] "Producer"

(** Seeded bug: the producer reuses sequence number 1 for every item, so
    the dedup append [⊕] swallows the second in-flight item and the
    consumer's ordering assertion fails — the very hazard the payload
    counter exists to prevent. *)
let buggy_program ?(items = 6) ?(credits = 2) () =
  let p = program ~items ~credits () in
  { p with
    P_syntax.Ast.machines =
      List.map
        (fun (m : P_syntax.Ast.machine) ->
          if P_syntax.Names.Machine.to_string m.machine_name = "Producer" then
            { m with
              P_syntax.Ast.states =
                List.map
                  (fun (st : P_syntax.Ast.state) ->
                    if P_syntax.Names.State.to_string st.state_name = "Produce" then
                      state "Produce"
                        ~entry:
                          (if_
                             (v "seq" < int items && v "credits" > int 0)
                             (seq
                                [ assign "credits" (v "credits" - int 1);
                                  assign "seq" (v "seq" + int 1);
                                  (* BUG: constant payload defeats ⊕ dedup *)
                                  send (v "consumer") "Item" ~payload:(int 1);
                                  raise_ "unit" ])
                             skip)
                    else st)
                  m.P_syntax.Ast.states }
          else m)
        p.P_syntax.Ast.machines }
