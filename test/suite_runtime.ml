(* Tests for the runtime: query evaluation, filters, joins, implicit list
   traversal, monitors, edge filters, timers, aggregation, parameter passing. *)

open Genie_thingtalk

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

let run ?(ticks = 1) ?(seed = 42) src =
  let env = Genie_runtime.Exec.create ~seed lib in
  Genie_runtime.Exec.run ~ticks env (parse src)

let test_now_query_notify () =
  let notifications, effects = run "now => @com.gmail.inbox() => notify;" in
  Alcotest.(check int) "list query notifies each row" 3 (List.length notifications);
  Alcotest.(check int) "no side effects" 0 (List.length effects)

let test_single_result_query () =
  let notifications, _ = run "now => @com.dropbox.get_space_usage() => notify;" in
  Alcotest.(check int) "singleton list" 1 (List.length notifications)

let test_action_side_effect () =
  let notifications, effects = run "now => @com.twitter.post(status = \"hi\");" in
  Alcotest.(check int) "no notifications" 0 (List.length notifications);
  match effects with
  | [ (fn, args) ] ->
      Alcotest.(check string) "fn" "@com.twitter.post" (Ast.Fn.to_string fn);
      Alcotest.(check bool) "arg" true (List.assoc "status" args = Value.String "hi")
  | _ -> Alcotest.fail "expected one side effect"

let test_filter_restricts () =
  let all, _ = run "now => @com.gmail.inbox() => notify;" in
  let some, _ =
    run "now => (@com.gmail.inbox()) filter is_important == true => notify;"
  in
  Alcotest.(check bool) "filter is a subset" true (List.length some <= List.length all);
  List.iter
    (fun record ->
      Alcotest.(check bool) "filter holds" true
        (List.assoc "is_important" record = Value.Boolean true))
    some

let test_false_filter_empty () =
  let n, _ = run "now => (@com.gmail.inbox()) filter false => notify;" in
  Alcotest.(check int) "empty" 0 (List.length n)

let test_join_cross_product () =
  let n, _ = run "now => @com.gmail.inbox() join @com.bbc.get_news() => notify;" in
  (* 3 rows x 3 rows *)
  Alcotest.(check int) "cross product" 9 (List.length n)

let test_join_param_passing () =
  let n, _ =
    run
      "now => @com.nytimes.get_front_page() join @com.yandex.translate.translate() on \
       (text = title) => notify;"
  in
  Alcotest.(check bool) "rows produced" true (List.length n > 0);
  List.iter
    (fun record ->
      Alcotest.(check bool) "translation present" true
        (List.mem_assoc "translated_text" record);
      (* the passed input parameter is visible downstream *)
      Alcotest.(check bool) "passed param bound" true (List.mem_assoc "text" record))
    n

let test_action_per_row () =
  let _, effects =
    run "now => @com.gmail.inbox() => @com.facebook.post(status = snippet);"
  in
  (* implicit traversal: one action per query result *)
  Alcotest.(check int) "one action per row" 3 (List.length effects)

let test_monitor_fires_on_change () =
  (* monitorable data changes every 3 virtual days in the mock services *)
  let n, _ = run ~ticks:7 "monitor (@com.gmail.inbox()) => notify;" in
  Alcotest.(check bool) "fires more than once" true (List.length n > 3);
  let n1, _ = run ~ticks:1 "monitor (@com.gmail.inbox()) => notify;" in
  Alcotest.(check int) "first evaluation seeds the stream" 3 (List.length n1)

let test_monitor_no_false_fires () =
  (* within one 3-day bucket the data does not change, so no extra events *)
  let n, _ = run ~ticks:3 "monitor (@com.gmail.inbox()) => notify;" in
  Alcotest.(check int) "no repeat within bucket" 3 (List.length n)

let test_edge_filter_transitions () =
  (* an edge filter fires only on false -> true transitions *)
  let n, _ =
    run ~ticks:40
      "edge (monitor (@com.nest.thermostat.get_temperature())) on value < 40C => notify;"
  in
  let raw, _ =
    run ~ticks:40
      "monitor ((@com.nest.thermostat.get_temperature()) filter value < 40C) => notify;"
  in
  Alcotest.(check bool) "edge fires at most as often as the filter" true
    (List.length n <= List.length raw);
  Alcotest.(check bool) "edge fires at least once over 40 days" true (List.length n >= 1)

let test_timer () =
  let n, _ = run ~ticks:10 "timer base = $now interval = 2day => notify;" in
  Alcotest.(check int) "every other day" 5 (List.length n)

let test_attimer () =
  let n, _ =
    run ~ticks:5 "attimer time = time(8,0) => notify;"
  in
  Alcotest.(check int) "once per day" 5 (List.length n)

let test_aggregation () =
  let n, _ = run "now => agg count of (@com.gmail.inbox()) => notify;" in
  (match n with
  | [ [ ("count", Value.Number c) ] ] -> Alcotest.(check (float 0.01)) "count" 3.0 c
  | _ -> Alcotest.fail "expected count record");
  let n, _ = run "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;" in
  match n with
  | [ [ ("file_size", Value.Number _) ] ] -> ()
  | _ -> Alcotest.fail "expected sum record"

let test_aggregation_avg_vs_sum () =
  let get src =
    match run src with
    | [ [ (_, Value.Number x) ] ], _ -> x
    | _ -> Alcotest.fail "expected aggregate"
  in
  let sum = get "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;" in
  let avg = get "now => agg avg file_size of (@com.dropbox.list_folder()) => notify;" in
  let mx = get "now => agg max file_size of (@com.dropbox.list_folder()) => notify;" in
  let mn = get "now => agg min file_size of (@com.dropbox.list_folder()) => notify;" in
  Alcotest.(check (float 0.01)) "avg = sum / 3" (sum /. 3.0) avg;
  Alcotest.(check bool) "min <= avg <= max" true (mn <= avg && avg <= mx)

let test_param_passing_to_action () =
  let _, effects =
    run
      "now => @com.thecatapi.get() => @com.facebook.post_picture(picture_url = \
       picture_url, caption = \"funny cat\");"
  in
  match effects with
  | [ (_, args) ] -> (
      match List.assoc "picture_url" args with
      | Value.String url ->
          Alcotest.(check bool) "url flowed from query" true
            (Genie_util.Tok.starts_with ~prefix:"https://" url)
      | _ -> Alcotest.fail "expected a url string")
  | _ -> Alcotest.fail "expected one side effect"

let test_external_predicate () =
  let n, _ =
    run
      "now => (@com.gmail.inbox()) filter @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;"
  in
  (* the external predicate either holds for all rows or none *)
  Alcotest.(check bool) "all or nothing" true (List.length n = 0 || List.length n = 3)

let test_ill_typed_rejected () =
  match run "now => @com.twitter.post();" with
  | exception Genie_runtime.Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime rejection of ill-typed program"

let test_deterministic () =
  let r1 = run ~seed:9 ~ticks:5 "monitor (@com.gmail.inbox()) => notify;" in
  let r2 = run ~seed:9 ~ticks:5 "monitor (@com.gmail.inbox()) => notify;" in
  Alcotest.(check bool) "same seed, same trace" true (r1 = r2)

(* A run is a function of (env seed, program, ticks): runs on one env, in any
   order, repeat what a fresh env gives, on the interpreted and the compiled
   path. The cat picture draws from the RNG, the monitor uses the virtual
   clock, the tweet is a side effect. *)
let test_runs_on_one_env_are_pure () =
  let programs =
    List.map parse
      [ "now => @com.thecatapi.get() => notify;";
        "monitor (@com.gmail.inbox()) => notify;";
        "monitor (@com.gmail.inbox()) => @com.twitter.post(status = \"hi\");" ]
  in
  let fresh p = Genie_runtime.Exec.run ~ticks:3 (Genie_runtime.Exec.create ~seed:9 lib) p in
  let paths =
    [ ("interpreted", fun env p -> Genie_runtime.Exec.run ~ticks:3 env p);
      ( "compiled",
        fun env p -> Genie_runtime.Compile.run ~ticks:3 env (Genie_runtime.Compile.compile lib p)
      ) ]
  in
  List.iter
    (fun (path, run_on) ->
      let env = Genie_runtime.Exec.create ~seed:9 lib in
      List.iteri
        (fun round () ->
          List.iteri
            (fun i p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: round %d, program %d = fresh env" path round i)
                true
                (run_on env p = fresh p))
            programs)
        [ (); (); () ])
    paths

let suite =
  [ Alcotest.test_case "now query notify" `Quick test_now_query_notify;
    Alcotest.test_case "single-result query" `Quick test_single_result_query;
    Alcotest.test_case "action side effect" `Quick test_action_side_effect;
    Alcotest.test_case "filter restricts" `Quick test_filter_restricts;
    Alcotest.test_case "false filter" `Quick test_false_filter_empty;
    Alcotest.test_case "join cross product" `Quick test_join_cross_product;
    Alcotest.test_case "join param passing" `Quick test_join_param_passing;
    Alcotest.test_case "implicit traversal" `Quick test_action_per_row;
    Alcotest.test_case "monitor fires on change" `Quick test_monitor_fires_on_change;
    Alcotest.test_case "monitor stable within bucket" `Quick test_monitor_no_false_fires;
    Alcotest.test_case "edge filter transitions" `Quick test_edge_filter_transitions;
    Alcotest.test_case "timer" `Quick test_timer;
    Alcotest.test_case "attimer" `Quick test_attimer;
    Alcotest.test_case "aggregation count/sum" `Quick test_aggregation;
    Alcotest.test_case "aggregation avg/max/min" `Quick test_aggregation_avg_vs_sum;
    Alcotest.test_case "param passing to action" `Quick test_param_passing_to_action;
    Alcotest.test_case "external predicate" `Quick test_external_predicate;
    Alcotest.test_case "ill-typed rejected" `Quick test_ill_typed_rejected;
    Alcotest.test_case "deterministic execution" `Quick test_deterministic;
    Alcotest.test_case "runs on one env are pure" `Quick test_runs_on_one_env_are_pure ]
