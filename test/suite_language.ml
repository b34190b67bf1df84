(* Tests for the ThingTalk language core: types, values, lexer, parser,
   printer, type checker. *)

open Genie_thingtalk

let lib = Genie_thingpedia.Thingpedia.core_library ()

let parse = Parser.parse_program

let check_roundtrip src =
  let p = parse src in
  let printed = Printer.program_to_string p in
  let p2 = parse printed in
  Alcotest.(check bool) ("roundtrip: " ^ src) true (p = p2)

(* --- types ------------------------------------------------------------------- *)

let test_units () =
  Alcotest.(check (float 1e-6)) "km to m" 5000.0 (Ttype.Units.to_base 5.0 "km");
  Alcotest.(check (float 1e-6)) "GB to bytes" 2e9 (Ttype.Units.to_base 2.0 "GB");
  Alcotest.(check (float 1e-3)) "F to C" 15.555 (Ttype.Units.to_base 60.0 "F");
  Alcotest.(check (float 1e-6)) "C identity" 20.0 (Ttype.Units.to_base 20.0 "C");
  Alcotest.(check (option string)) "base of min" (Some "ms") (Ttype.Units.base_of "min");
  Alcotest.(check (option string)) "unknown unit" None (Ttype.Units.base_of "parsec")

let test_assignability () =
  Alcotest.(check bool) "same type" true
    (Ttype.assignable ~src:Ttype.String ~dst:Ttype.String);
  Alcotest.(check bool) "string into entity" true
    (Ttype.assignable ~src:Ttype.String ~dst:(Ttype.Entity "tt:song"));
  Alcotest.(check bool) "number into string" false
    (Ttype.assignable ~src:Ttype.Number ~dst:Ttype.String);
  Alcotest.(check bool) "url into picture" true
    (Ttype.assignable ~src:Ttype.Url ~dst:Ttype.Picture);
  (* strict assignability used for synthesis is narrower *)
  Alcotest.(check bool) "strict: string into phone rejected" false
    (Ttype.strictly_assignable ~src:Ttype.String ~dst:Ttype.Phone_number);
  Alcotest.(check bool) "strict: same entity" true
    (Ttype.strictly_assignable ~src:(Ttype.Entity "tt:song") ~dst:(Ttype.Entity "tt:song"));
  Alcotest.(check bool) "strict: different entities" false
    (Ttype.strictly_assignable ~src:(Ttype.Entity "tt:song") ~dst:(Ttype.Entity "tt:artist"))

let test_value_conformance () =
  Alcotest.(check bool) "measure base match" true
    (Value.conforms (Value.Measure [ (60.0, "F") ]) (Ttype.Measure "C"));
  Alcotest.(check bool) "measure base mismatch" false
    (Value.conforms (Value.Measure [ (60.0, "F") ]) (Ttype.Measure "byte"));
  Alcotest.(check bool) "enum member" true
    (Value.conforms (Value.Enum "on") (Ttype.Enum [ "on"; "off" ]));
  Alcotest.(check bool) "enum non-member" false
    (Value.conforms (Value.Enum "maybe") (Ttype.Enum [ "on"; "off" ]));
  Alcotest.(check bool) "undefined conforms anywhere" true
    (Value.conforms Value.Undefined Ttype.Number)

let test_measure_composition () =
  (* "6 feet 3 inches" composes additively (section 2.1) *)
  let v = Value.Measure [ (6.0, "ft"); (3.0, "in") ] in
  match Value.to_float ~now:0.0 v with
  | Some meters -> Alcotest.(check (float 1e-3)) "6ft 3in in meters" 1.905 meters
  | None -> Alcotest.fail "expected a numeric value"

let test_dates () =
  let now = 10.0 in
  let day d = Value.date_to_days ~now d in
  Alcotest.(check (float 1e-9)) "now" 10.0 (day Value.D_now);
  Alcotest.(check (float 1e-9)) "start of week" 7.0 (day (Value.D_start_of "week"));
  Alcotest.(check (float 1e-9)) "end of week" 14.0 (day (Value.D_end_of "week"));
  Alcotest.(check (float 1e-6)) "now + 2 days" 12.0
    (day (Value.D_plus (Value.D_now, 2.0, "day")))

let test_runtime_equal () =
  Alcotest.(check bool) "case-insensitive strings" true
    (Value.runtime_equal ~now:0.0 (Value.String "Alice") (Value.String "alice"));
  Alcotest.(check bool) "entity vs string" true
    (Value.runtime_equal ~now:0.0
       (Value.Entity { ty = "tt:username"; value = "bob"; display = None })
       (Value.String "bob"));
  Alcotest.(check bool) "measures across units" true
    (Value.runtime_equal ~now:0.0
       (Value.Measure [ (1.0, "km") ])
       (Value.Measure [ (1000.0, "m") ]))

(* --- lexer / parser / printer ----------------------------------------------------- *)

let test_parse_fig1 () =
  let p =
    parse
      "now => @com.thecatapi.get() => @com.facebook.post_picture(picture_url = \
       picture_url, caption = \"funny cat\");"
  in
  Alcotest.(check int) "two invocations" 2 (List.length (Ast.program_invocations p));
  Alcotest.(check bool) "has param passing" true (Ast.has_param_passing p)

let test_parse_roundtrips () =
  List.iter check_roundtrip
    [ "now => @com.gmail.inbox() => notify;";
      "now => (@com.gmail.inbox()) filter sender_name == \"alice\" => notify;";
      "monitor (@com.twitter.timeline()) => @com.twitter.retweet(tweet_id = tweet_id);";
      "edge (monitor (@org.thingpedia.weather.current(location = location(\"paris\")))) on \
       temperature < 60F => notify;";
      "timer base = $now interval = 1h => notify;";
      "attimer time = time(8,30) => @com.twitter.post(status = \"good morning\");";
      "now => @com.nytimes.get_front_page() join @com.yandex.translate.translate() on \
       (text = title) => notify;";
      "monitor (@com.dropbox.list_folder()) on new [file_name] => notify;";
      "now => (@com.gmail.inbox()) filter is_important == true && sender_name == \"bob\" \
       => notify;";
      "now => (@com.gmail.inbox()) filter (sender_name == \"a\" || sender_name == \"b\") \
       => notify;";
      "now => (@com.dropbox.list_folder()) filter !(is_folder == true) => notify;";
      "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;";
      "now => agg count of (@com.gmail.inbox()) => notify;";
      "now => (@com.dropbox.list_folder()) filter modified_time > start_of(week) => notify;";
      "now => @com.uber.price_estimate(start = location:home, end = location:work) => notify;";
      "now => @org.thingpedia.builtin.thingengine.builtin.get_random_between(low = 1, high = \
       10) => notify;";
      "now => (@com.twitter.timeline()) filter hashtags contains \"cats\"^^tt:hashtag => \
       notify;" ]

let test_parse_policy () =
  let pol =
    Parser.parse_policy
      "source source == \"secretary\"^^tt:contact : now => (@com.gmail.inbox()) filter \
       labels contains \"work\" => notify;"
  in
  (match pol.Ast.target with
  | Ast.Policy_query (inv, pred) ->
      Alcotest.(check string) "fn" "@com.gmail.inbox" (Ast.Fn.to_string inv.Ast.fn);
      Alcotest.(check bool) "has filter" true (pred <> Ast.P_true)
  | Ast.Policy_action _ -> Alcotest.fail "expected query policy");
  (* policy printer round trip *)
  let pol2 = Parser.parse_policy (Printer.policy_to_string pol) in
  Alcotest.(check bool) "policy roundtrip" true (pol = pol2)

let test_parse_errors () =
  let fails src =
    match parse src with
    | exception (Parser.Error _ | Lexer.Error _) -> ()
    | _ -> Alcotest.fail ("expected parse error: " ^ src)
  in
  fails "now => => notify;";
  fails "monitor => notify;";
  fails "now => @com.gmail.inbox(";
  fails "now => @com.gmail.inbox() => notify; trailing";
  fails "now => (@com.gmail.inbox()) filter sender_name == => notify;"

(* A function reference without a class used to escape as Ast.Fn.of_string's
   Invalid_argument. *)
let test_parse_malformed_function () =
  let src = "now => @ashboard() => notify;" in
  (match parse src with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail ("expected Parser.Error: " ^ src));
  Alcotest.(check bool) "parse_program_opt" true (Parser.parse_program_opt src = None);
  let bad_op = "now => (@com.gmail.inbox()) filter sender_name in \"bob\" => notify;" in
  match parse bad_op with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail ("expected Parser.Error: " ^ bad_op)

let test_measure_lexing () =
  let p = parse "now => (@com.dropbox.list_folder()) filter file_size > 10MB => notify;" in
  match Ast.program_predicates p with
  | [ Ast.P_atom { rhs = Value.Measure [ (10.0, "MB") ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a 10MB measure"

(* --- typecheck ---------------------------------------------------------------------- *)

let ok src =
  match Typecheck.check_program lib (parse src) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (src ^ ": " ^ e)

let bad src =
  let p = parse src in
  match Typecheck.check_program lib p with
  | Ok () -> Alcotest.fail ("expected type error: " ^ src)
  | Error _ -> ()

let test_typecheck_accepts () =
  ok "now => @com.gmail.inbox() => notify;";
  ok "monitor (@com.twitter.timeline()) => @com.twitter.retweet(tweet_id = tweet_id);";
  ok "now => @com.thecatapi.get() => @com.facebook.post_picture(picture_url = picture_url, \
      caption = \"x\");";
  ok "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;";
  ok "now => @com.nytimes.get_front_page() join @com.yandex.translate.translate() on (text \
      = title) => notify;"

let test_typecheck_rejects () =
  bad "now => @com.nosuch.fn() => notify;";
  (* action used as query *)
  bad "now => @com.twitter.post(status = \"x\") => notify;";
  (* query used as action *)
  bad "now => @com.gmail.inbox() => @com.twitter.timeline();";
  (* missing required parameter *)
  bad "now => @com.twitter.post();";
  (* wrong constant type *)
  bad "now => @com.twitter.post(status = 42);";
  (* unknown parameter *)
  bad "now => @com.twitter.post(status = \"x\", nope = \"y\");";
  (* filter on unknown output *)
  bad "now => (@com.gmail.inbox()) filter nosuch == \"x\" => notify;";
  (* ordering comparison on a string column *)
  bad "now => (@com.gmail.inbox()) filter subject > 5 => notify;";
  (* unbound parameter passing *)
  bad "now => @com.gmail.inbox() => @com.twitter.retweet(tweet_id = nothere);";
  (* monitor of a non-monitorable function (thecatapi changes constantly) *)
  bad "monitor (@com.thecatapi.get()) => notify;";
  (* aggregation over a non-numeric field *)
  bad "now => agg sum file_name of (@com.dropbox.list_folder()) => notify;";
  (* count of a single-result query *)
  bad "now => agg count of (@com.dropbox.get_space_usage()) => notify;";
  (* duplicate parameter *)
  bad "now => @com.twitter.post(status = \"a\", status = \"b\");"

let test_monitorability_composition () =
  (* filters and joins of monitorable queries remain monitorable (section 2.2) *)
  ok "monitor ((@com.gmail.inbox()) filter is_important == true) => notify;";
  ok "monitor (@com.nytimes.get_front_page() join @com.bbc.get_news()) => notify;";
  (* a join with a non-monitorable operand is not monitorable *)
  bad "monitor (@com.gmail.inbox() join @com.thecatapi.get()) => notify;"

let test_out_params () =
  let q = (parse "now => @com.dropbox.list_folder() => notify;").Ast.query in
  match q with
  | Some q ->
      let outs = Typecheck.query_out_params lib q in
      Alcotest.(check bool) "has file_name" true (List.mem_assoc "file_name" outs);
      Alcotest.(check bool) "has modified_time" true (List.mem_assoc "modified_time" outs)
  | None -> Alcotest.fail "expected query"

let test_join_rightmost_wins () =
  (* on duplicate output names, the rightmost instance wins (section 2.3) *)
  let q =
    (parse
       "now => @com.nytimes.get_front_page() join @com.bbc.get_news() => notify;")
      .Ast.query
  in
  match q with
  | Some q ->
      let outs = Typecheck.query_out_params lib q in
      Alcotest.(check int) "one title" 1
        (List.length (List.filter (fun (n, _) -> n = "title") outs))
  | None -> Alcotest.fail "expected query"

let suite =
  [ Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "assignability" `Quick test_assignability;
    Alcotest.test_case "value conformance" `Quick test_value_conformance;
    Alcotest.test_case "measure composition" `Quick test_measure_composition;
    Alcotest.test_case "dates" `Quick test_dates;
    Alcotest.test_case "runtime equality" `Quick test_runtime_equal;
    Alcotest.test_case "parse fig1" `Quick test_parse_fig1;
    Alcotest.test_case "parse/print roundtrips" `Quick test_parse_roundtrips;
    Alcotest.test_case "parse policy" `Quick test_parse_policy;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "malformed function is a parse error" `Quick
      test_parse_malformed_function;
    Alcotest.test_case "measure lexing" `Quick test_measure_lexing;
    Alcotest.test_case "typecheck accepts" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
    Alcotest.test_case "monitorability composition" `Quick test_monitorability_composition;
    Alcotest.test_case "query out params" `Quick test_out_params;
    Alcotest.test_case "join rightmost wins" `Quick test_join_rightmost_wins ]
