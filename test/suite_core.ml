(* Integration tests for the Genie pipeline (Fig. 2): end-to-end runs at small
   scale, regime differences, ablation switches, case-study plumbing. *)

open Genie_thingtalk
module Config = Genie_core.Config
module Pipeline = Genie_core.Pipeline

let lib = Genie_thingpedia.Thingpedia.core_library ()
let prims = Genie_thingpedia.Thingpedia.core_templates ()
let rules = Genie_templates.Rules_thingtalk.rules lib

let tiny = Config.scaled 0.45 Config.default

let artifacts = lazy (Pipeline.run ~cfg:tiny ~lib ~prims ~rules ())

let test_pipeline_produces_artifacts () =
  let a = Lazy.force artifacts in
  Alcotest.(check bool) "synthesized data" true (List.length a.Pipeline.synthesized > 500);
  Alcotest.(check bool) "paraphrases collected" true (List.length a.Pipeline.paraphrases > 100);
  Alcotest.(check bool) "training set built" true (List.length a.Pipeline.train > 1000);
  Alcotest.(check bool) "paraphrase test held out" true
    (List.length a.Pipeline.paraphrase_test > 10);
  Alcotest.(check bool) "lm corpus built" true (List.length a.Pipeline.lm_programs > 500)

let test_holdout_is_disjoint () =
  let a = Lazy.force artifacts in
  let combo p =
    String.concat "+"
      (List.sort_uniq compare (List.map Ast.Fn.to_string (Ast.program_functions p)))
  in
  (* no training example uses a held-out function combination *)
  List.iter
    (fun (e : Genie_dataset.Example.t) ->
      Alcotest.(check bool) "train avoids held-out combos" false
        (Hashtbl.mem a.Pipeline.held_out_combos (combo e.Genie_dataset.Example.program)))
    a.Pipeline.train;
  (* every paraphrase-test example uses one *)
  List.iter
    (fun (e : Genie_dataset.Example.t) ->
      Alcotest.(check bool) "test uses held-out combos" true
        (Hashtbl.mem a.Pipeline.held_out_combos (combo e.Genie_dataset.Example.program)))
    a.Pipeline.paraphrase_test

let test_training_set_is_well_typed () =
  let a = Lazy.force artifacts in
  List.iter
    (fun (e : Genie_dataset.Example.t) ->
      match Typecheck.check_program lib e.Genie_dataset.Example.program with
      | Ok () -> ()
      | Error err -> Alcotest.fail (Genie_dataset.Example.sentence e ^ ": " ^ err))
    a.Pipeline.train

let test_quotes_stripped () =
  let a = Lazy.force artifacts in
  List.iter
    (fun (e : Genie_dataset.Example.t) ->
      Alcotest.(check bool) "no quote tokens in training" false
        (List.mem "\"" e.Genie_dataset.Example.tokens))
    a.Pipeline.train

let test_predictor_reasonable () =
  let a = Lazy.force artifacts in
  (* parses a simple primitive correctly even at tiny scale *)
  match Pipeline.predictor a (Genie_util.Tok.tokenize "get a cat picture") with
  | Some p ->
      Alcotest.(check string) "cat api"
        "now => @com.thecatapi.get() => notify;"
        (Canonical.canonical_string lib p)
  | None -> Alcotest.fail "no parse"

let test_regime_training_sets_differ () =
  let run regime =
    Pipeline.run ~cfg:{ tiny with Config.regime } ~lib ~prims ~rules ()
  in
  let synth_only = run Config.Synthesized_only in
  let para_only = run Config.Paraphrase_only in
  Alcotest.(check bool) "synthesized-only has no paraphrases" true
    (List.for_all
       (fun (e : Genie_dataset.Example.t) ->
         e.Genie_dataset.Example.source = Genie_dataset.Example.Synthesized)
       synth_only.Pipeline.train);
  Alcotest.(check bool) "paraphrase-only has no synthesized" true
    (List.for_all
       (fun (e : Genie_dataset.Example.t) ->
         e.Genie_dataset.Example.source = Genie_dataset.Example.Paraphrase)
       para_only.Pipeline.train)

let test_baseline_has_no_expansion () =
  let baseline =
    Pipeline.run ~cfg:{ tiny with Config.regime = Config.Wang_baseline } ~lib ~prims ~rules ()
  in
  (* no parameter expansion: training set equals the pre-expansion set *)
  Alcotest.(check int) "no expanded copies"
    (List.length baseline.Pipeline.train_before_expansion)
    (List.length baseline.Pipeline.train);
  Alcotest.(check bool) "no LM corpus" true (baseline.Pipeline.lm_programs = [])

let test_ablation_configs_map () =
  let c = { Config.default with Config.ablations = [ Config.No_type_annotations ] } in
  let ac = Config.aligner_config c in
  Alcotest.(check bool) "type annotations off" false
    ac.Genie_parser_model.Aligner.options.Nn_syntax.type_annotations;
  let c2 = { Config.default with Config.ablations = [ Config.No_decoder_lm ] } in
  Alcotest.(check bool) "decoder lm off" false
    (Config.aligner_config c2).Genie_parser_model.Aligner.use_decoder_lm

let test_fig1_end_to_end () =
  let a = Lazy.force artifacts in
  let _, program, effects = Genie_core.Experiments.fig1_end_to_end a in
  (match program with
  | Some p ->
      Alcotest.(check bool) "well-typed parse" true (Typecheck.well_typed lib p);
      let fns = List.map Ast.Fn.to_string (Ast.program_functions p) in
      (* at this tiny training scale the parse may be imperfect, but it must
         land in the right domain *)
      Alcotest.(check bool) "mentions the cat api or facebook" true
        (List.mem "@com.thecatapi.get" fns
        || List.exists (fun f -> Genie_util.Tok.starts_with ~prefix:"@com.facebook" f) fns)
  | None -> Alcotest.fail "fig1 did not parse");
  ignore effects

let test_fig7_characteristics () =
  let c = Genie_core.Experiments.fig7 (Lazy.force artifacts) in
  Alcotest.(check bool) "has primitives and compounds" true
    (c.Genie_dataset.Stats.primitive > 0.0
    && c.Genie_dataset.Stats.compound
       +. c.Genie_dataset.Stats.compound_with_param_passing
       +. c.Genie_dataset.Stats.compound_with_filters
       > 0.0)

let test_synthesis_stats () =
  let s = Genie_core.Experiments.synthesis_stats (Lazy.force artifacts) in
  Alcotest.(check bool) "augmentation grows the vocabulary" true
    (s.Genie_core.Experiments.words_after_augmentation
    > s.Genie_core.Experiments.words_synthesized);
  Alcotest.(check bool) "paraphrasing grows the vocabulary" true
    (s.Genie_core.Experiments.words_after_paraphrase
    > s.Genie_core.Experiments.words_synthesized);
  Alcotest.(check bool) "paraphrases add words on average" true
    (s.Genie_core.Experiments.new_words_per_paraphrase > 0.0)

(* The aligner's exact output on a fixed slice of realistic commands: the
   first 64 distinct section 5.1 generator commands for seed 5, parsed by
   the scale-0.45 pipeline model. The digest folds each prediction's printed
   program, NN tokens and the bits of its score, so any change to decoding
   -- however small -- moves it. Regold only for an intended change to what
   the aligner answers. *)
let golden_sentences =
  lazy
    (let module G = Genie_evaldata.Generators in
     let seed = 5 and n = 40 in
     let all =
       G.developer lib ~prims ~rules ~seed ~n
       @ G.cheatsheet lib ~prims ~rules ~seed ~n ()
       @ G.ifttt lib ~prims ~seed ~n
     in
     let seen = Hashtbl.create 128 in
     List.filter_map
       (fun e ->
         let toks = (Genie_dataset.Example.strip_quotes e).Genie_dataset.Example.tokens in
         let key = String.concat " " toks in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           Some toks
         end)
       all
     |> List.filteri (fun i _ -> i < 64))

let prediction_digest preds =
  let h = ref (Genie_util.Hash64.string 0L "aligner.predict") in
  List.iter
    (fun (p : Genie_parser_model.Aligner.prediction) ->
      h :=
        Genie_util.Hash64.string !h
          (match p.Genie_parser_model.Aligner.program with
          | Some prog -> Printer.program_to_string prog
          | None -> "<none>");
      h := Genie_util.Hash64.string !h (String.concat " " p.Genie_parser_model.Aligner.nn_tokens);
      h := Genie_util.Hash64.combine !h (Int64.bits_of_float p.Genie_parser_model.Aligner.score))
    preds;
  Genie_util.Hash64.to_hex !h

let read_golden name =
  let rel = Filename.concat "golden" name in
  let path = if Sys.file_exists rel then rel else Filename.concat "test" rel in
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  line

let test_aligner_predict_golden () =
  let a = Lazy.force artifacts in
  let sentences = Lazy.force golden_sentences in
  Alcotest.(check int) "64 golden sentences" 64 (List.length sentences);
  let preds = List.map (Genie_parser_model.Aligner.predict a.Pipeline.model) sentences in
  let line = Printf.sprintf "n=%d digest=%s" (List.length preds) (prediction_digest preds) in
  if Sys.getenv_opt "GOLDEN_DUMP" = Some "1" then
    Printf.printf "test/golden/aligner_predict.digest: %s\n%!" line;
  Alcotest.(check string) "golden aligner digest" (read_golden "aligner_predict.digest") line

(* A trained aligner is read-only: two domains decoding the golden slice
   from one shared model at once must each get the sequential answers. *)
let test_aligner_shared_across_domains () =
  let a = Lazy.force artifacts in
  let model = a.Pipeline.model in
  let sentences = Lazy.force golden_sentences in
  let run () = List.map (Genie_parser_model.Aligner.predict model) sentences in
  let sequential = prediction_digest (run ()) in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check string) "first domain" sequential (prediction_digest r1);
  Alcotest.(check string) "second domain" sequential (prediction_digest r2)

(* --- aligner training and identity ------------------------------------------ *)

module Aligner = Genie_parser_model.Aligner
module Counter = Genie_util.Counter

(* The serving daemon's model: a scale-0.2 pipeline. *)
let serve_artifacts = lazy (Pipeline.run ~cfg:(Config.scaled 0.2 Config.default) ~lib ~prims ~rules ())

(* The alignment pair counts as [Aligner.train] once wrote them: 1 per
   (skeleton atom, sentence n-gram occurrence) pair of every example. *)
let reference_pair_counts (cfg : Aligner.config) examples =
  let pairs = Counter.create () in
  List.iter
    (fun (e : Genie_dataset.Example.t) ->
      let norm =
        Genie_dataset.Argument_id.normalize
          (List.filter (fun tok -> tok <> "\"") e.Genie_dataset.Example.tokens)
      in
      let program = Canonical.normalize lib e.Genie_dataset.Example.program in
      let sk = Genie_parser_model.Skeleton.of_program ~options:cfg.Aligner.options lib program in
      let grams = Aligner.sentence_ngrams norm.Genie_dataset.Argument_id.tokens in
      List.iter
        (fun a -> List.iter (fun g -> Counter.add pairs (a ^ " || " ^ g)) grams)
        (Genie_parser_model.Skeleton.atoms sk))
    examples;
  pairs

let check_pair_counts name (model : Aligner.t) examples =
  let expected = reference_pair_counts model.Aligner.cfg examples in
  let got = model.Aligner.pair_counts in
  Alcotest.(check int) (name ^ ": distinct pairs") (Counter.distinct expected) (Counter.distinct got);
  Alcotest.(check (float 0.0)) (name ^ ": total") (Counter.total expected) (Counter.total got);
  Counter.iter
    (fun k v -> if Counter.count got k <> v then Alcotest.failf "%s: count of %S" name k)
    expected

let test_pair_counts_match_reference () =
  let a = Lazy.force serve_artifacts in
  check_pair_counts "scale 0.2" a.Pipeline.model a.Pipeline.train;
  (* an n-gram a sentence repeats is counted once per occurrence *)
  let mk sentence src =
    Genie_dataset.Example.make ~id:0 ~tokens:(Genie_util.Tok.tokenize sentence)
      ~program:(Parser.parse_program src) ~source:Genie_dataset.Example.Synthesized ()
  in
  let examples =
    [ mk "cat cat cat picture" "now => @com.thecatapi.get() => notify;";
      mk "get a cat picture , a cat picture" "now => @com.thecatapi.get() => notify;";
      mk "emails from bob bob" "now => (@com.gmail.inbox()) filter sender_name == \"bob\" => notify;";
      mk "emails emails" "now => @com.gmail.inbox() => notify;" ]
  in
  check_pair_counts "repeated n-grams" (Aligner.train lib examples) examples

let copy_counter ?(skip = "") c =
  let c' = Counter.create () in
  List.iter (fun (k, v) -> if k <> skip then Counter.add ~weight:v c' k) (List.rev (Counter.to_list c));
  c'

let copy_table ?(map = fun _ e -> e) tbl =
  let tbl' = Hashtbl.create 1 in
  List.iter
    (fun (k, e) -> Hashtbl.replace tbl' k (map k e))
    (List.rev (Hashtbl.fold (fun k e acc -> (k, e) :: acc) tbl []));
  tbl'

(* Every table rebuilt from a reversed walk of its entries, so entries land
   in a different insertion order and bucket layout. *)
let rebuild ?(atom_counts = fun c -> copy_counter c) ?(ngram_counts = fun c -> copy_counter c)
    ?(pair_counts = fun c -> copy_counter c) ?(queries = fun t -> copy_table t) (m : Aligner.t) =
  { m with
    Aligner.inventory = copy_table m.Aligner.inventory;
    ngram_counts = ngram_counts m.Aligner.ngram_counts;
    atom_counts = atom_counts m.Aligner.atom_counts;
    pair_counts = pair_counts m.Aligner.pair_counts;
    slot_word_counts = copy_counter m.Aligner.slot_word_counts;
    slot_param_counts = copy_counter m.Aligner.slot_param_counts;
    slot_value_counts = copy_counter m.Aligner.slot_value_counts;
    streams = copy_table m.Aligner.streams;
    queries = queries m.Aligner.queries;
    actions = copy_table m.Aligner.actions }

let test_digest_is_order_free () =
  let m = (Lazy.force serve_artifacts).Pipeline.model in
  let d = Aligner.digest m in
  Alcotest.(check string) "rebuilt in reverse order" d (Aligner.digest (rebuild m));
  let differs what m' =
    if Aligner.digest m' = d then Alcotest.failf "%s leaves the digest unchanged" what
  in
  let pair, _ = List.hd (Counter.to_list m.Aligner.pair_counts) in
  differs "one pair count +1"
    (rebuild m ~pair_counts:(fun c ->
         let c' = copy_counter c in
         Counter.add c' pair;
         c'));
  let atom, n = List.hd (Counter.to_list m.Aligner.atom_counts) in
  differs "an atom_counts key moved to ngram_counts"
    (rebuild m
       ~atom_counts:(fun c -> copy_counter ~skip:atom c)
       ~ngram_counts:(fun c ->
         let c' = copy_counter c in
         Counter.add ~weight:n c' atom;
         c'));
  let renamed = ref false in
  differs "one clause atom renamed"
    (rebuild m ~queries:(fun t ->
         copy_table t ~map:(fun _ (e : Aligner.clause_entry) ->
             match e.Aligner.atoms with
             | a :: rest when not !renamed ->
                 renamed := true;
                 { e with Aligner.atoms = (a ^ "'") :: rest }
             | _ -> e)))

let test_tacl_case_study_plumbing () =
  (* one miniature TACL training run end-to-end *)
  let tacl_lib = Genie_core.Case_studies.tacl_library () in
  let _, encoded = Genie_core.Case_studies.tacl_pipeline ~cfg:tiny ~lib:tacl_lib ~prims 5 in
  Alcotest.(check bool) "policies synthesized and encoded" true (List.length encoded > 50);
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "encoded policy type-checks" true (Typecheck.well_typed tacl_lib p);
      Alcotest.(check bool) "encoding decodes back" true
        (Genie_templates.Rules_tacl.decode p <> None))
    encoded

let suite =
  [ Alcotest.test_case "pipeline produces artifacts" `Slow test_pipeline_produces_artifacts;
    Alcotest.test_case "holdout disjoint from training" `Slow test_holdout_is_disjoint;
    Alcotest.test_case "training set well-typed" `Slow test_training_set_is_well_typed;
    Alcotest.test_case "quotes stripped" `Slow test_quotes_stripped;
    Alcotest.test_case "predictor parses a primitive" `Slow test_predictor_reasonable;
    Alcotest.test_case "regimes build different sets" `Slow test_regime_training_sets_differ;
    Alcotest.test_case "baseline has no augmentation" `Slow test_baseline_has_no_expansion;
    Alcotest.test_case "ablation config mapping" `Quick test_ablation_configs_map;
    Alcotest.test_case "fig1 end to end" `Slow test_fig1_end_to_end;
    Alcotest.test_case "fig7 characteristics" `Slow test_fig7_characteristics;
    Alcotest.test_case "synthesis statistics" `Slow test_synthesis_stats;
    Alcotest.test_case "tacl case-study plumbing" `Slow test_tacl_case_study_plumbing;
    Alcotest.test_case "golden aligner predictions" `Slow test_aligner_predict_golden;
    Alcotest.test_case "aligner shared across domains" `Slow
      test_aligner_shared_across_domains;
    Alcotest.test_case "pair counts match the per-example count" `Slow
      test_pair_counts_match_reference;
    Alcotest.test_case "aligner digest is order-free" `Slow test_digest_is_order_free ]
