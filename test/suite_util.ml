(* Tests for genie.util: PRNG, tokenizer, counters. *)

open Genie_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 1.0 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  (* the split stream differs from the parent's continued stream *)
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_pick_distribution () =
  let rng = Rng.create 11 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.pick rng [ "a"; "b"; "c" ] in
    Hashtbl.replace counts v (1 + try Hashtbl.find counts v with Not_found -> 0)
  done;
  Hashtbl.iter
    (fun _ c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let xs = List.init 50 Fun.id in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same elements" xs (List.sort compare ys)

let test_rng_sample () =
  let rng = Rng.create 17 in
  let xs = List.init 100 Fun.id in
  let s = Rng.sample rng 10 xs in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check int) "no duplicates" 10 (List.length (List.sort_uniq compare s))

let test_rng_weighted () =
  let rng = Rng.create 19 in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if Rng.weighted rng [ ("heavy", 9.0); ("light", 1.0) ] = "heavy" then incr heavy
  done;
  Alcotest.(check bool) "weights respected" true (!heavy > 800)

let test_budget_decay () =
  Alcotest.(check int) "depth 0" 100 (Rng.budget_for_depth ~target:100 ~depth:0);
  Alcotest.(check int) "depth 1" 50 (Rng.budget_for_depth ~target:100 ~depth:1);
  Alcotest.(check int) "depth 3" 12 (Rng.budget_for_depth ~target:100 ~depth:3);
  Alcotest.(check int) "never zero" 1 (Rng.budget_for_depth ~target:100 ~depth:12)

let test_tokenize_basic () =
  Alcotest.(check (list string)) "simple" [ "hello"; "world" ] (Tok.tokenize "Hello  World");
  Alcotest.(check (list string))
    "punctuation" [ "a"; ","; "b"; "." ] (Tok.tokenize "a, b.");
  Alcotest.(check (list string))
    "quotes" [ "\""; "funny"; "cat"; "\"" ] (Tok.tokenize "\"funny cat\"")

let test_tokenize_preserves_urls () =
  Alcotest.(check (list string))
    "url kept whole"
    [ "the"; "feed"; "at"; "https://example.com/feed" ]
    (Tok.tokenize "the feed at https://example.com/feed");
  Alcotest.(check (list string))
    "email kept whole" [ "alice.smith@gmail.com" ] (Tok.tokenize "alice.smith@gmail.com");
  Alcotest.(check (list string))
    "path kept whole" [ "/photos/vacation.jpg" ] (Tok.tokenize "/photos/vacation.jpg")

let test_tokenize_handles () =
  Alcotest.(check (list string)) "hashtag" [ "#cats" ] (Tok.tokenize "#cats");
  Alcotest.(check (list string)) "username" [ "@alice" ] (Tok.tokenize "@alice")

let test_ngrams () =
  Alcotest.(check int) "bigram count" 2 (List.length (Tok.bigrams [ "a"; "b"; "c" ]));
  let all = Tok.all_ngrams 2 [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "unigrams and bigrams" [ "a"; "b"; "c"; "a b"; "b c" ] all

let test_match_sub () =
  Alcotest.(check bool) "found" true
    (Tok.match_sub [ "x"; "a"; "b"; "y" ] [ "a"; "b" ] = Some ([ "x" ], [ "y" ]));
  Alcotest.(check bool) "missing" true (Tok.match_sub [ "x" ] [ "a" ] = None);
  Alcotest.(check bool) "empty needle" true (Tok.match_sub [ "x" ] [] = None)

let test_string_helpers () =
  Alcotest.(check bool) "starts" true (Tok.starts_with ~prefix:"ab" "abc");
  Alcotest.(check bool) "not starts" false (Tok.starts_with ~prefix:"b" "abc");
  Alcotest.(check bool) "ends" true (Tok.ends_with ~suffix:"bc" "abc");
  Alcotest.(check bool) "contains" true (Tok.contains_substring ~sub:"b c" "a b c d");
  Alcotest.(check (list string))
    "split_on_string" [ "a"; "b"; "c" ] (Tok.split_on_string ~sep:"::" "a::b::c")

let test_affix_edges () =
  Alcotest.(check bool) "empty prefix" true (Tok.starts_with ~prefix:"" "abc");
  Alcotest.(check bool) "empty prefix, empty string" true (Tok.starts_with ~prefix:"" "");
  Alcotest.(check bool) "prefix longer than string" false (Tok.starts_with ~prefix:"abcd" "abc");
  Alcotest.(check bool) "prefix equal to string" true (Tok.starts_with ~prefix:"abc" "abc");
  Alcotest.(check bool) "last char differs" false (Tok.starts_with ~prefix:"abd" "abcd");
  Alcotest.(check bool) "empty suffix" true (Tok.ends_with ~suffix:"" "abc");
  Alcotest.(check bool) "empty suffix, empty string" true (Tok.ends_with ~suffix:"" "");
  Alcotest.(check bool) "suffix longer than string" false (Tok.ends_with ~suffix:"zabc" "abc");
  Alcotest.(check bool) "suffix equal to string" true (Tok.ends_with ~suffix:"abc" "abc");
  Alcotest.(check bool) "first char differs" false (Tok.ends_with ~suffix:"xbc" "abc")

let test_affix_no_alloc () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let base = words (fun () -> ()) in
  let used =
    words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Tok.starts_with ~prefix:"param:" "param:caption"));
          ignore (Sys.opaque_identity (Tok.ends_with ~suffix:".get" "@com.thecatapi.get"))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "2000 affix tests allocate under 1000 words (%.0f)" (used -. base))
    true
    (used -. base < 1000.0)

(* Values of Hash64.string fixed before its loop was rewritten: corpus,
   codec and trace digests all depend on them. *)
let hash_4k = String.init 4096 (fun i -> Char.chr (i land 255))

let test_hash64_string_values () =
  let hex s = Hash64.to_hex (Hash64.string 0L s) in
  Alcotest.(check string) "empty" "0000000000000000" (hex "");
  Alcotest.(check string) "genie.aligner" "90d7701b146f8865" (hex "genie.aligner");
  Alcotest.(check string) "4 KB" "783fa9aa73be7ac6" (hex hash_4k)

let test_hash64_string_no_alloc () =
  let words s =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Hash64.string 0L s));
    Gc.minor_words () -. before
  in
  (* the returned Int64 is boxed once, whatever the length *)
  let base = words "" in
  let used = words hash_4k in
  Alcotest.(check (float 0.0)) "hashing 4 KB allocates no more than hashing \"\"" 0.0
    (used -. base)

let test_counter () =
  let c = Counter.create () in
  Counter.add c "x";
  Counter.add c "x";
  Counter.add ~weight:0.5 c "y";
  Alcotest.(check (float 1e-9)) "count" 2.0 (Counter.count c "x");
  Alcotest.(check (float 1e-9)) "weighted" 0.5 (Counter.count c "y");
  Alcotest.(check (float 1e-9)) "total" 2.5 (Counter.total c);
  Alcotest.(check int) "distinct" 2 (Counter.distinct c);
  Alcotest.(check (float 1e-9)) "missing" 0.0 (Counter.count c "z");
  match Counter.top 1 c with
  | [ (k, v) ] ->
      Alcotest.(check string) "top key" "x" k;
      Alcotest.(check (float 1e-9)) "top count" 2.0 v
  | _ -> Alcotest.fail "expected one top entry"

let test_atomic_counter () =
  let c = Atomic_counter.create () in
  Atomic_counter.incr c;
  Atomic_counter.incr c;
  Atomic_counter.add c 5;
  Atomic_counter.add c (-3);
  Alcotest.(check int) "sequential arithmetic" 4 (Atomic_counter.get c);
  Atomic_counter.reset c;
  Alcotest.(check int) "reset" 0 (Atomic_counter.get c);
  let c = Atomic_counter.create ~value:10 () in
  Alcotest.(check int) "initial value" 10 (Atomic_counter.get c)

let test_atomic_counter_parallel () =
  (* concurrent increments from two domains lose no updates *)
  let c = Atomic_counter.create () in
  let bump () =
    for _ = 1 to 10_000 do
      Atomic_counter.incr c
    done;
    for _ = 1 to 1_000 do
      Atomic_counter.add c 2
    done
  in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  Alcotest.(check int) "no lost updates" 24_000 (Atomic_counter.get c)

let test_json_lite () =
  let j =
    Json_lite.Obj
      [ ("name", Json_lite.String "a \"quoted\"\nvalue");
        ("n", Json_lite.Int 3);
        ("rate", Json_lite.Float 0.5);
        ("bad", Json_lite.Float Float.nan);
        ("ok", Json_lite.Bool true);
        ("items", Json_lite.List [ Json_lite.Int 1; Json_lite.Int 2 ]);
        ("empty", Json_lite.List []) ]
  in
  let s = Json_lite.to_string ~indent:0 j in
  Alcotest.(check bool) "escapes quotes" true
    (Genie_util.Tok.contains_substring ~sub:"a \\\"quoted\\\"\\nvalue" s);
  Alcotest.(check bool) "nan becomes null" true
    (Genie_util.Tok.contains_substring ~sub:"\"bad\": null" s);
  Alcotest.(check bool) "int" true (Genie_util.Tok.contains_substring ~sub:"\"n\": 3" s);
  Alcotest.(check bool) "empty list" true
    (Genie_util.Tok.contains_substring ~sub:"\"empty\": []" s)

let test_json_float_roundtrip () =
  (* float_repr must be lossless: a fixed %.6g corrupts anything with more
     than six significant digits, like nanosecond-scale latency sums *)
  let cases =
    [ 0.0; -0.0; 1.0; 0.5; 0.1; 1.0 /. 3.0; Float.pi; 1e-7; -2.5e-9;
      123456789012345.67; 86_399_123_456_789.25; 6.02214076e23;
      Float.min_float; Float.max_float; Float.epsilon ]
  in
  List.iter
    (fun f ->
      let s = Json_lite.float_repr f in
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips via %S" f s)
        true
        (float_of_string s = f))
    cases;
  (* the representation is also the shortest: the common cases stay short *)
  Alcotest.(check string) "0.5 stays short" "0.5" (Json_lite.float_repr 0.5);
  Alcotest.(check string) "1 stays short" "1" (Json_lite.float_repr 1.0);
  Alcotest.(check string) "nan is null" "null" (Json_lite.float_repr Float.nan);
  Alcotest.(check string) "inf is null" "null" (Json_lite.float_repr Float.infinity);
  Alcotest.(check string) "-inf is null" "null"
    (Json_lite.float_repr Float.neg_infinity)

let test_json_escape_table () =
  (* parse-free: every expected escape is a literal, compared byte for byte *)
  let cases =
    [ ("plain", "plain");
      ("", "");
      ("q\"q", "q\\\"q");
      ("b\\b", "b\\\\b");
      ("n\nn", "n\\nn");
      ("r\rr", "r\\rr");
      ("t\tt", "t\\tt");
      ("\x00", "\\u0000");
      ("\x01\x02", "\\u0001\\u0002");
      ("\x1f", "\\u001f");
      ("bell\x07", "bell\\u0007");
      ("\x7f", "\x7f");  (* DEL is not a JSON control escape *)
      ("caf\xc3\xa9", "caf\xc3\xa9");  (* UTF-8 passes through *)
      ("mix\"\\\n\x01end", "mix\\\"\\\\\\n\\u0001end") ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "escape %S" input)
        expected (Json_lite.escape input))
    cases

let qcheck_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:50
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      List.sort compare (Rng.shuffle rng xs) = List.sort compare xs)

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng pick distribution" `Quick test_rng_pick_distribution;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng sample" `Quick test_rng_sample;
    Alcotest.test_case "rng weighted" `Quick test_rng_weighted;
    Alcotest.test_case "synthesis budget decay" `Quick test_budget_decay;
    Alcotest.test_case "tokenize basic" `Quick test_tokenize_basic;
    Alcotest.test_case "tokenize urls/emails/paths" `Quick test_tokenize_preserves_urls;
    Alcotest.test_case "tokenize handles" `Quick test_tokenize_handles;
    Alcotest.test_case "ngrams" `Quick test_ngrams;
    Alcotest.test_case "match_sub" `Quick test_match_sub;
    Alcotest.test_case "string helpers" `Quick test_string_helpers;
    Alcotest.test_case "affix edge cases" `Quick test_affix_edges;
    Alcotest.test_case "affix tests do not allocate" `Quick test_affix_no_alloc;
    Alcotest.test_case "hash64 string values" `Quick test_hash64_string_values;
    Alcotest.test_case "hash64 string does not allocate" `Quick test_hash64_string_no_alloc;
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "atomic counter" `Quick test_atomic_counter;
    Alcotest.test_case "atomic counter parallel" `Quick test_atomic_counter_parallel;
    Alcotest.test_case "json lite" `Quick test_json_lite;
    Alcotest.test_case "json float round-trip" `Quick test_json_float_roundtrip;
    Alcotest.test_case "json escape table" `Quick test_json_escape_table;
    QCheck_alcotest.to_alcotest qcheck_shuffle_preserves ]
