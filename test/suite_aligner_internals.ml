(* Unit tests for the Aligner's exposed internals: association scores,
   skeleton scoring cues, span scoring features, program shuffling, and the
   compositional decoder. *)

open Genie_thingtalk
open Genie_parser_model

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

let mk sentence src =
  Genie_dataset.Example.make ~id:0 ~tokens:(Genie_util.Tok.tokenize sentence)
    ~program:(parse src) ~source:Genie_dataset.Example.Synthesized ()

let model =
  lazy
    (Aligner.train lib
       (List.concat
          (List.init 5 (fun i ->
               let who = List.nth [ "alice"; "bob"; "carol"; "dave"; "eve" ] i in
               [ mk "get a cat picture" "now => @com.thecatapi.get() => notify;";
                 mk
                   (Printf.sprintf "emails from %s" who)
                   (Printf.sprintf
                      "now => (@com.gmail.inbox()) filter sender_name == \"%s\" => notify;"
                      who);
                 mk "when i receive an email , turn on the lights"
                   "monitor (@com.gmail.inbox()) => \
                    @io.home-assistant.light.set_power(power = enum:on);" ]))))

let test_cond_score_discriminates () =
  let t = Lazy.force model in
  let cat = Aligner.cond_score t "@com.thecatapi.get" "cat" in
  let gmail = Aligner.cond_score t "@com.gmail.inbox" "cat" in
  Alcotest.(check bool)
    (Printf.sprintf "cat predicts the cat api (%.2f vs %.2f)" cat gmail)
    true (cat > gmail);
  Alcotest.(check bool) "bounded" true (cat <= 1.0 && cat >= 0.0)

let test_best_explainer () =
  let t = Lazy.force model in
  (* the best explanation of "cat" anywhere is at least the cat api's *)
  Alcotest.(check bool) "explainer dominates" true
    (Aligner.best_explainer t "cat" >= Aligner.cond_score t "@com.thecatapi.get" "cat")

let test_atom_weights () =
  Alcotest.(check bool) "functions dominate" true
    (Aligner.atom_weight "@com.gmail.inbox" > Aligner.atom_weight "param:sender_name");
  Alcotest.(check bool) "stream markers matter" true
    (Aligner.atom_weight "monitor" > Aligner.atom_weight "join")

let test_shuffle_program_preserves_semantics () =
  let p =
    parse
      "now => @com.gmail.send_email(message = \"m\", subject = \"s\", to = \"a@b.com\");"
  in
  let rng = Genie_util.Rng.create 5 in
  let shuffled = Aligner.shuffle_program rng p in
  Alcotest.(check string) "canonically equal"
    (Canonical.canonical_string lib p)
    (Canonical.canonical_string lib shuffled)

let test_candidate_spans_exclude_slots () =
  let spans = Aligner.candidate_spans [ "set"; "to"; "NUMBER_0"; "volume" ] in
  Alcotest.(check bool) "no span contains a named constant" true
    (List.for_all (fun (_, span) -> not (List.mem "NUMBER_0" span)) spans)

let test_compose_candidates_typecheck () =
  let t = Lazy.force model in
  let grams =
    Aligner.sentence_ngrams (Genie_util.Tok.tokenize "when i receive an email get a cat picture")
  in
  let cache = Hashtbl.create 64 in
  let composed = Aligner.compose_candidates t cache grams in
  Alcotest.(check bool) "composition produced candidates" true (composed <> []);
  List.iter
    (fun (e : Aligner.skeleton_entry) ->
      match Skeleton.fill lib e.Aligner.skeleton [] with
      | Some p -> Alcotest.(check bool) "composed candidate type-checks" true (Typecheck.well_typed lib p)
      | None -> Alcotest.fail "composed skeleton does not fill")
    composed

let test_compose_reaches_unseen_combo () =
  (* the training data never pairs gmail monitoring with the cat api as a
     query, yet composition can build it *)
  let t = Lazy.force model in
  let grams =
    Aligner.sentence_ngrams (Genie_util.Tok.tokenize "when i receive an email get a cat picture")
  in
  let cache = Hashtbl.create 64 in
  let composed = Aligner.compose_candidates t cache grams in
  let target =
    Canonical.canonical_string lib
      (parse "monitor (@com.gmail.inbox()) => @com.thecatapi.get() => notify;")
  in
  Alcotest.(check bool) "unseen combination reachable" true
    (List.exists
       (fun (e : Aligner.skeleton_entry) ->
         match Skeleton.fill lib e.Aligner.skeleton [] with
         | Some p -> Canonical.canonical_string lib p = target
         | None -> false)
       composed)

let test_span_score_features () =
  let t = Lazy.force model in
  let cue _ = 0.0 in
  let score ?(before = None) ?(after = None) span =
    Aligner.span_score t ~param:"sender_name" ~pool_opt:(Some "person_name") ~cue ~before
      ~after span
  in
  (* a known person name from the gazette beats arbitrary words *)
  Alcotest.(check bool) "gazette member preferred" true
    (score [ "james"; "smith" ] > score [ "random"; "words" ]);
  (* the parameter-name anchor boosts a span *)
  Alcotest.(check bool) "anchor bonus" true
    (score ~before:(Some "sender_name") [ "james"; "smith" ]
    > score ~before:(Some "the") [ "james"; "smith" ])

let test_predict_scores_ordered () =
  let t = Lazy.force model in
  let p = Aligner.predict t (Genie_util.Tok.tokenize "get a cat picture") in
  Alcotest.(check bool) "prediction carries a finite score" true
    (p.Aligner.score > neg_infinity);
  Alcotest.(check bool) "nn tokens non-empty" true (p.Aligner.nn_tokens <> [])

(* Bounded top-k selection must be exactly the head of the stable sort the
   decoder used to run, ties included: a later candidate never displaces an
   equal-scoring earlier one. Scores come from a small pool so ties and
   duplicates are common; the payload is the position, so any reordering
   among equal scores shows. *)
let qcheck_top_k_is_stable_sort_prefix =
  let score = QCheck.Gen.oneofl [ neg_infinity; -3.5; -1.0; 0.0; 0.0; 2.25; infinity ] in
  let gen =
    QCheck.Gen.(pair (int_range 0 12) (list_size (int_range 0 20) score))
  in
  let print (k, xs) =
    Printf.sprintf "k=%d [%s]" k (String.concat "; " (List.map string_of_float xs))
  in
  QCheck.Test.make ~name:"top_k = prefix of the stable descending sort" ~count:500
    (QCheck.make ~print gen)
    (fun (k, scores) ->
      let xs = List.mapi (fun i s -> (s, i)) scores in
      let expected =
        List.filteri (fun i _ -> i < k) (List.stable_sort (fun (a, _) (b, _) -> compare b a) xs)
      in
      Aligner.top_k k xs = expected)

let test_top_k_edges () =
  let xs = [ (1.0, "a"); (neg_infinity, "b"); (1.0, "c"); (5.0, "d") ] in
  Alcotest.(check (list string)) "k = 0" [] (List.map snd (Aligner.top_k 0 xs));
  Alcotest.(check (list string)) "k > length" [ "d"; "a"; "c"; "b" ]
    (List.map snd (Aligner.top_k 9 xs));
  Alcotest.(check (list string)) "ties keep list order" [ "d"; "a" ]
    (List.map snd (Aligner.top_k 2 xs));
  Alcotest.(check (list string)) "empty" [] (List.map snd (Aligner.top_k 3 []))

let test_pipeline_combo_key () =
  let p = parse "monitor (@com.gmail.inbox()) => @com.thecatapi.get() => notify;" in
  Alcotest.(check string) "sorted function set"
    "@com.gmail.inbox+@com.thecatapi.get"
    (Genie_core.Pipeline.combo_key p)

let test_config_scaled () =
  let c = Genie_core.Config.scaled 0.5 Genie_core.Config.default in
  Alcotest.(check int) "synth target halves"
    (Genie_core.Config.default.Genie_core.Config.synth_target / 2)
    c.Genie_core.Config.synth_target;
  let tiny = Genie_core.Config.scaled 0.0001 Genie_core.Config.default in
  Alcotest.(check bool) "never zero" true (tiny.Genie_core.Config.synth_target >= 1)

let suite =
  [ Alcotest.test_case "cond score discriminates" `Quick test_cond_score_discriminates;
    Alcotest.test_case "best explainer dominates" `Quick test_best_explainer;
    Alcotest.test_case "atom weights" `Quick test_atom_weights;
    Alcotest.test_case "shuffle preserves semantics" `Quick
      test_shuffle_program_preserves_semantics;
    Alcotest.test_case "spans exclude named constants" `Quick
      test_candidate_spans_exclude_slots;
    Alcotest.test_case "composed candidates type-check" `Quick
      test_compose_candidates_typecheck;
    Alcotest.test_case "composition reaches unseen combos" `Quick
      test_compose_reaches_unseen_combo;
    Alcotest.test_case "span score features" `Quick test_span_score_features;
    Alcotest.test_case "prediction fields" `Quick test_predict_scores_ordered;
    Alcotest.test_case "top-k edge cases" `Quick test_top_k_edges;
    QCheck_alcotest.to_alcotest qcheck_top_k_is_stable_sort_prefix;
    Alcotest.test_case "pipeline combo key" `Quick test_pipeline_combo_key;
    Alcotest.test_case "config scaling" `Quick test_config_scaled ]
