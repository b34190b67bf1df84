(* Tests for the NN token syntax: serialization, deserialization, named
   constants (NUMBER_0 / DATE_0 / TIME_0), quoted spans, and the serializer
   options used by the Table 3 ablations. *)

open Genie_thingtalk

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

let roundtrip ?options ?entities p =
  Nn_syntax.of_tokens ?options ?entities lib (Nn_syntax.to_tokens ?options ?entities lib p)

let check_roundtrip ?options ?entities src =
  let p = Canonical.normalize lib (parse src) in
  let p2 = roundtrip ?options ?entities p in
  Alcotest.(check string) ("nn roundtrip: " ^ src)
    (Canonical.canonical_string lib p)
    (Canonical.canonical_string lib p2)

let test_roundtrips () =
  List.iter check_roundtrip
    [ "now => @com.gmail.inbox() => notify;";
      "now => (@com.gmail.inbox()) filter sender_name == \"alice\" => notify;";
      "monitor (@com.twitter.timeline()) => @com.twitter.retweet(tweet_id = tweet_id);";
      "now => @com.thecatapi.get() => @com.facebook.post_picture(picture_url = \
       picture_url, caption = \"funny cat\");";
      "edge (monitor (@org.thingpedia.weather.current(location = location(\"paris\")))) \
       on temperature < 60F => notify;";
      "attimer time = time(8,30) => @com.twitter.post(status = \"gm\");";
      "timer base = $now interval = 30min => notify;";
      "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;";
      "now => agg count of (@com.gmail.inbox()) => notify;";
      "now => (@com.twitter.timeline()) filter hashtags contains \"cats\"^^tt:hashtag => \
       notify;";
      "now => (@com.gmail.inbox()) filter (sender_name == \"a\" || sender_name == \"b\") \
       && is_important == true => notify;";
      "monitor (@com.dropbox.list_folder()) on new [file_name] => notify;";
      "now => @com.nytimes.get_front_page() join @com.yandex.translate.translate() on \
       (text = title) => notify;" ]

let test_quoted_span () =
  let p = parse "now => @com.twitter.post(status = \"hello big world\");" in
  let toks = Nn_syntax.to_tokens lib p in
  Alcotest.(check bool) "words are separate tokens" true
    (List.mem "hello" toks && List.mem "big" toks && List.mem "world" toks);
  Alcotest.(check bool) "quote markers present" true (List.mem "\"" toks)

let test_named_constants () =
  (* a NUMBER_0 slot resolves through the entity map, as the argument
     identifier produces it *)
  let entities = [ ("NUMBER_0", Value.Number 42.0) ] in
  let p = parse "now => @com.lg.tv.set_volume(volume = 42);" in
  let toks = Nn_syntax.to_tokens ~entities lib p in
  Alcotest.(check bool) "slot token emitted" true (List.mem "NUMBER_0" toks);
  let p2 = Nn_syntax.of_tokens ~entities lib toks in
  Alcotest.(check string) "roundtrip through slot"
    (Canonical.canonical_string lib p)
    (Canonical.canonical_string lib p2)

let test_measure_slots () =
  let entities = [ ("NUMBER_0", Value.Number 60.0) ] in
  let p = parse "now => @com.nest.thermostat.set_target_temperature(value = 60F);" in
  let toks = Nn_syntax.to_tokens ~entities lib p in
  Alcotest.(check bool) "number slot + unit token" true
    (List.mem "NUMBER_0" toks && List.mem "unit:F" toks);
  let p2 = Nn_syntax.of_tokens ~entities lib toks in
  Alcotest.(check string) "roundtrip"
    (Canonical.canonical_string lib p)
    (Canonical.canonical_string lib p2)

let test_type_annotations_option () =
  let p = parse "now => @com.twitter.post(status = \"x\");" in
  let with_types = Nn_syntax.to_tokens lib p in
  let without =
    Nn_syntax.to_tokens
      ~options:{ Nn_syntax.type_annotations = false; keyword_params = true }
      lib p
  in
  Alcotest.(check bool) "typed param token" true (List.mem "param:status:String" with_types);
  Alcotest.(check bool) "untyped param token" true (List.mem "param:status" without)

let test_positional_option () =
  let options = { Nn_syntax.type_annotations = true; keyword_params = false } in
  let p = parse "now => @com.gmail.send_email(to = \"a@b.com\", subject = \"s\", message = \"m\");" in
  let toks = Nn_syntax.to_tokens ~options lib p in
  Alcotest.(check bool) "no keyword tokens" true
    (not (List.exists (fun t -> Genie_util.Tok.starts_with ~prefix:"param:to" t) toks));
  let p2 = Nn_syntax.of_tokens ~options lib toks in
  Alcotest.(check string) "positional roundtrip"
    (Canonical.canonical_string lib p)
    (Canonical.canonical_string lib p2)

let test_well_formed () =
  let good = Nn_syntax.to_tokens lib (parse "now => @com.gmail.inbox() => notify;") in
  Alcotest.(check bool) "valid tokens" true (Nn_syntax.well_formed lib good);
  Alcotest.(check bool) "garbage rejected" false
    (Nn_syntax.well_formed lib [ "now"; "=>"; "=>"; "notify" ]);
  Alcotest.(check bool) "ill-typed rejected" false
    (Nn_syntax.well_formed lib
       [ "now"; "=>"; "@com.twitter.post"; "=>"; "notify" ])

(* Malformed function names, operators and integers used to escape as the
   constructors' Invalid_argument or Failure. *)
let test_malformed_tokens () =
  let rejects src =
    match Nn_syntax.of_string lib src with
    | exception Nn_syntax.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected Parse_error: " ^ src)
  in
  rejects "now => @ashboard => notify";
  rejects "now => @com.gmail.inbox filter param:sender_name ~= \" bob \" => notify";
  rejects "now => @com.gmail.inbox filter param:date >= date:2020:x:1 => notify";
  rejects "now => @com.gmail.inbox filter param:date >= time:7:x => notify";
  rejects "now => @com.gmail.inbox filter param:sender_name == currency:usd x => notify";
  Alcotest.(check bool) "not well-formed" false
    (Nn_syntax.well_formed lib [ "now"; "=>"; "@ashboard"; "=>"; "notify" ])

(* property: roundtrip over the synthesized pool *)
let program_pool =
  lazy
    (let prims = Genie_thingpedia.Thingpedia.core_templates () in
     let rules = Genie_templates.Rules_thingtalk.rules lib in
     let g =
       Genie_templates.Grammar.create lib ~prims ~rules
         ~rng:(Genie_util.Rng.create 99) ()
     in
     List.map snd
       (Genie_synthesis.Engine.synthesize g
          { Genie_synthesis.Engine.default_config with
            seed = 99;
            target_per_rule = 60;
            max_depth = 4 }))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"nn-syntax roundtrip on synthesized programs" ~count:200
    (QCheck.make
       (QCheck.Gen.oneofl (Lazy.force program_pool))
       ~print:Printer.program_to_string)
    (fun p ->
      let c = Canonical.normalize lib p in
      Canonical.canonical_string lib (roundtrip c) = Canonical.canonical_string lib c)

let qcheck_positional_roundtrip =
  let options = { Nn_syntax.type_annotations = false; keyword_params = false } in
  QCheck.Test.make ~name:"positional nn-syntax roundtrip" ~count:100
    (QCheck.make
       (QCheck.Gen.oneofl (Lazy.force program_pool))
       ~print:Printer.program_to_string)
    (fun p ->
      let c = Canonical.normalize lib p in
      Canonical.canonical_string lib (roundtrip ~options c)
      = Canonical.canonical_string lib c)

let suite =
  [ Alcotest.test_case "roundtrips" `Quick test_roundtrips;
    Alcotest.test_case "quoted spans" `Quick test_quoted_span;
    Alcotest.test_case "named constants" `Quick test_named_constants;
    Alcotest.test_case "measure slots" `Quick test_measure_slots;
    Alcotest.test_case "type annotation option" `Quick test_type_annotations_option;
    Alcotest.test_case "positional option" `Quick test_positional_option;
    Alcotest.test_case "well-formedness check" `Quick test_well_formed;
    Alcotest.test_case "malformed tokens are parse errors" `Quick test_malformed_tokens;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_positional_roundtrip ]
