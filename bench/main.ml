(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) and runs Bechamel
   timing micro-benchmarks for the core components.

   Usage:
     dune exec bench/main.exe                 -- all experiments, default scale
     dune exec bench/main.exe -- --only fig8  -- one experiment
     dune exec bench/main.exe -- --scale 2.0 --seeds 3
     dune exec bench/main.exe -- --quick      -- small scale, 1 seed *)

open Genie_thingtalk
module Config = Genie_core.Config
module Experiments = Genie_core.Experiments
module Pipeline = Genie_core.Pipeline
module Case_studies = Genie_core.Case_studies

let scale = ref 1.0
let seeds = ref 3
let only = ref ""
let quick = ref false
let skip_timing = ref false
let spill_phase = ref ""
let spill_out = ref ""

let () =
  let args =
    [ ("--scale", Arg.Set_float scale, "scale factor for dataset sizes (default 1.0)");
      ("--seeds", Arg.Set_int seeds, "number of training runs per config (default 3)");
      ("--only", Arg.Set_string only, "run only experiments whose id contains this string");
      ("--quick", Arg.Set quick, "quick mode: scale 0.4, one seed");
      ("--skip-timing", Arg.Set skip_timing, "skip the Bechamel timing benchmarks");
      ("--spill-phase", Arg.Set_string spill_phase,
       "(internal) run one streaming spill phase (MODE:SCALE) and exit");
      ("--spill-out", Arg.Set_string spill_out,
       "(internal) result file for --spill-phase") ]
  in
  Arg.parse args (fun _ -> ()) "Genie benchmark harness"

let cfg () =
  let s = if !quick then 0.4 else !scale in
  Config.scaled s Config.default

let seed_list () = List.init (if !quick then 1 else !seeds) (fun i -> i + 1)

let enabled id = !only = "" || Genie_util.Tok.contains_substring ~sub:!only id

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  --  %s\n" id title;
  Printf.printf "================================================================\n%!"

let pct_cell (c : Experiments.cell) =
  Printf.sprintf "%5.1f ± %4.1f" (100. *. c.Experiments.mean) (100. *. c.Experiments.half_range)

(* a shared Genie-full pipeline used by several experiments *)
let shared : Pipeline.artifacts option ref = ref None

let core_setup () =
  let lib = Genie_thingpedia.Thingpedia.core_library () in
  let prims = Genie_thingpedia.Thingpedia.core_templates () in
  let rules = Genie_templates.Rules_thingtalk.rules lib in
  (lib, prims, rules)

let shared_artifacts () =
  match !shared with
  | Some a -> a
  | None ->
      let lib, prims, rules = core_setup () in
      let a = Pipeline.run ~cfg:(cfg ()) ~lib ~prims ~rules () in
      shared := Some a;
      a

(* --- Fig. 1 ---------------------------------------------------------------------- *)

let fig1 () =
  header "fig1_end_to_end" "Fig. 1: translate and execute a compound command";
  let a = shared_artifacts () in
  let sentence, program, effects = Experiments.fig1_end_to_end a in
  Printf.printf "input    : %s\n" sentence;
  (match program with
  | Some p -> Printf.printf "ThingTalk: %s\n" (Printer.program_to_string p)
  | None -> Printf.printf "ThingTalk: <no parse>\n");
  List.iter
    (fun (fn, args) ->
      Printf.printf "executed : %s(%s)\n" (Ast.Fn.to_string fn)
        (String.concat ", "
           (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) args)))
    effects;
  Printf.printf "(paper: now => @com.thecatapi.get() => @com.facebook.post_picture(...))\n%!"

(* --- Fig. 7 ---------------------------------------------------------------------- *)

let fig7 () =
  header "fig7_dataset_characteristics"
    "Fig. 7: characteristics of the ThingTalk training set";
  let a = shared_artifacts () in
  let c = Experiments.fig7 a in
  Format.printf "%a@." Genie_dataset.Stats.pp_characteristics c;
  Printf.printf
    "(paper: 48%% primitive / 20%% primitive+filters / 15%% compound / 5%% +param passing / 13%% +filters)\n%!"

(* --- section 5.2 synthesis statistics ---------------------------------------------- *)

let synthesis_stats () =
  header "tab_synthesis_stats" "Section 5.2: training data acquisition statistics";
  let a = shared_artifacts () in
  let s = Experiments.synthesis_stats a in
  Printf.printf "synthesized sentences          %8d   (paper: 1,724,553 at full scale)\n"
    s.Experiments.synthesized_sentences;
  Printf.printf "  distinct programs            %8d   (paper: 77,716)\n"
    s.Experiments.synthesized_distinct_programs;
  Printf.printf "paraphrases accepted/collected %5d / %d (paper: 24,451 selected)\n"
    s.Experiments.paraphrases_accepted s.Experiments.paraphrases_collected;
  Printf.printf "training sentences (final)     %8d   (paper: 3,649,222)\n"
    s.Experiments.train_sentences;
  Printf.printf "  distinct programs            %8d   (paper: 680,408)\n"
    s.Experiments.train_distinct_programs;
  Printf.printf "  function combinations        %8d   (paper: 4,710)\n"
    s.Experiments.train_function_combos;
  Printf.printf "distinct words: synthesized    %8d   (paper: 770)\n"
    s.Experiments.words_synthesized;
  Printf.printf "  after paraphrasing           %8d   (paper: 2,104)\n"
    s.Experiments.words_after_paraphrase;
  Printf.printf "  after augmentation           %8d   (paper: 208,429)\n"
    s.Experiments.words_after_augmentation;
  Printf.printf "new words per paraphrase       %7.0f%%   (paper: 38%%)\n"
    (100. *. s.Experiments.new_words_per_paraphrase);
  Printf.printf "new bigrams per paraphrase     %7.0f%%   (paper: 65%%)\n%!"
    (100. *. s.Experiments.new_bigrams_per_paraphrase)

(* --- Fig. 8 ------------------------------------------------------------------------- *)

let fig8 () =
  header "fig8_training_strategies"
    "Fig. 8: program accuracy by training strategy (mean ± half-range)";
  let lib, prims, rules = core_setup () in
  let rows = Experiments.fig8 ~cfg:(cfg ()) ~seeds:(seed_list ()) ~lib ~prims ~rules () in
  Printf.printf "%-18s %14s %14s %14s %14s\n" "training" "Paraphrase" "Validation"
    "Cheatsheet" "IFTTT";
  List.iter
    (fun (r : Experiments.fig8_row) ->
      Printf.printf "%-18s %14s %14s %14s %14s\n"
        (Config.regime_to_string r.Experiments.regime)
        (pct_cell r.Experiments.on_paraphrase)
        (pct_cell r.Experiments.on_validation)
        (pct_cell r.Experiments.on_cheatsheet)
        (pct_cell r.Experiments.on_ifttt))
    rows;
  Printf.printf
    "(paper:   synthesized-only  48 / 56 / 53 / 51;  paraphrase-only  82 / 55 / 46 / 49;\n";
  Printf.printf "          genie             87 / 68 / 62 / 63)\n%!"

(* --- Table 3 -------------------------------------------------------------------------- *)

let tab3 () =
  header "tab3_ablation" "Table 3: ablation study (mean ± half-range)";
  let lib, prims, rules = core_setup () in
  let rows = Experiments.tab3 ~cfg:(cfg ()) ~seeds:(seed_list ()) ~lib ~prims ~rules () in
  Printf.printf "%-22s %14s %14s %14s\n" "model" "Paraphrase" "Validation" "New Program";
  List.iter
    (fun (r : Experiments.tab3_row) ->
      Printf.printf "%-22s %14s %14s %14s\n" r.Experiments.label
        (pct_cell r.Experiments.on_paraphrase)
        (pct_cell r.Experiments.on_validation)
        (pct_cell r.Experiments.on_new_program))
    rows;
  Printf.printf
    "(paper: Genie 87.1/67.9/29.9; -canon 80.0/63.2/21.9; -keyword 84.0/66.6/25.0;\n";
  Printf.printf
    "        -types 86.9/67.5/31.0; -param-exp 78.3/66.3/30.5; -decoderLM 88.7/66.8/27.3)\n%!"

(* --- section 5.5 error analysis --------------------------------------------------------- *)

let error_analysis () =
  header "tab_error_analysis" "Section 5.5: error analysis on the validation set";
  let lib, prims, rules = core_setup () in
  let m = Experiments.error_analysis ~cfg:(cfg ()) ~lib ~prims ~rules () in
  let pct x = 100. *. x in
  Printf.printf "syntactically + type correct     %5.1f%%  (paper: 96%%)\n"
    (pct m.Genie_parser_model.Eval.syntax_ok);
  Printf.printf "primitive-vs-compound identified %5.1f%%  (paper: 91%%)\n"
    (pct m.Genie_parser_model.Eval.prim_compound_accuracy);
  Printf.printf "correct skills (devices)         %5.1f%%  (paper: 87%%)\n"
    (pct m.Genie_parser_model.Eval.device_accuracy);
  Printf.printf "correct functions                %5.1f%%  (paper: 82%%)\n"
    (pct m.Genie_parser_model.Eval.function_accuracy);
  Printf.printf "wrong parameter value only       %5.1f%%  (paper: <1%% of inputs)\n"
    (pct m.Genie_parser_model.Eval.wrong_param_value);
  Printf.printf "full program accuracy            %5.1f%%  (paper: 68%%)\n%!"
    (pct m.Genie_parser_model.Eval.program_accuracy)

(* --- section 5.2: limitation of paraphrase-only methodology ------------------------------- *)

let paraphrase_limitation () =
  header "tab_paraphrase_limitation"
    "Section 5.2: paraphrase-set methodology of prior work (1 template/function)";
  let lib, prims, _ = core_setup () in
  let r = Experiments.paraphrase_limitation ~cfg:(cfg ()) ~lib ~prims () in
  Printf.printf "paraphrases of trained programs    %5.1f%%  (paper: 95%%)\n"
    (100. *. r.Experiments.in_distribution_paraphrase);
  Printf.printf "paraphrases of unseen combinations %5.1f%%  (paper: 48%%)\n"
    (100. *. r.Experiments.unseen_combination_paraphrase);
  Printf.printf "realistic validation data          %5.1f%%  (paper: ~40%%)\n%!"
    (100. *. r.Experiments.realistic_validation)

(* --- Fig. 9 case studies ------------------------------------------------------------------- *)

let fig9_case name (run : unit -> Case_studies.result) paper =
  header ("fig9_" ^ name) (Printf.sprintf "Fig. 9: %s case study (cheatsheet data)" name);
  let r = run () in
  Printf.printf "%-10s baseline %s    genie %s\n" r.Case_studies.name
    (pct_cell r.Case_studies.baseline)
    (pct_cell r.Case_studies.genie);
  Printf.printf "(paper: %s)\n%!" paper

let fig9_spotify () =
  fig9_case "spotify"
    (fun () -> Case_studies.spotify ~cfg:(cfg ()) ~seeds:(seed_list ()) ())
    "baseline ~51, genie 82 (+31)"

let fig9_tacl () =
  fig9_case "tacl"
    (fun () -> Case_studies.tacl ~cfg:(cfg ()) ~seeds:(seed_list ()) ())
    "baseline ~57, genie 82 (+25)"

let fig9_aggregation () =
  fig9_case "aggregation"
    (fun () -> Case_studies.aggregation ~cfg:(cfg ()) ~seeds:(seed_list ()) ())
    "baseline ~48, genie 67 (+19)"

(* --- MQAN-lite small-scale run -------------------------------------------------------------- *)

let mqan_small () =
  header "bench_mqan_small"
    "Section 4: MQAN-lite (LSTM + attention + pointer-generator) on a small split";
  let lib, prims, rules = core_setup () in
  let rng = Genie_util.Rng.create 5 in
  let g = Genie_templates.Grammar.create lib ~prims ~rules ~rng () in
  let data =
    Genie_synthesis.Engine.synthesize g
      { Genie_synthesis.Engine.default_config with target_per_rule = 12; max_depth = 2 }
  in
  let pairs =
    List.filteri (fun i _ -> i < 120)
      (List.map
         (fun (toks, p) ->
           let toks = List.filter (fun t -> t <> "\"") toks in
           (toks, Nn_syntax.to_tokens lib (Canonical.normalize lib p)))
         data)
  in
  let n_train = List.length pairs * 9 / 10 in
  let train = List.filteri (fun i _ -> i < n_train) pairs in
  let test = List.filteri (fun i _ -> i >= n_train) pairs in
  let src_vocab = Genie_nn.Vocab.of_tokens (List.concat_map fst pairs) in
  let tgt_vocab = Genie_nn.Vocab.of_tokens (List.concat_map snd pairs) in
  (* pretrain the decoder LM on programs, as in section 4.2 *)
  let lm = Genie_nn.Lm.create ~vocab:tgt_vocab () in
  Genie_nn.Lm.train ~epochs:2 lm (List.map snd train);
  Printf.printf "program-LM perplexity on held-out programs: %.1f\n%!"
    (Genie_nn.Lm.perplexity lm (List.map snd test));
  let model = Genie_nn.Seq2seq.create ~src_vocab ~tgt_vocab () in
  Genie_nn.Seq2seq.load_decoder_embedding model (Genie_nn.Lm.embedding_table lm);
  Genie_nn.Seq2seq.train ~epochs:12 ~lr:5e-3
    ~progress:(fun r ->
      if r.Genie_nn.Seq2seq.epoch mod 4 = 0 then
        Printf.printf "  epoch %2d  mean loss %.3f\n%!" r.Genie_nn.Seq2seq.epoch
          r.Genie_nn.Seq2seq.mean_loss)
    model train;
  let exact =
    List.length
      (List.filter (fun (src, tgt) -> Genie_nn.Seq2seq.decode model src = tgt) test)
  in
  Printf.printf "exact-match on held-out synthesized sentences: %d / %d\n%!" exact
    (List.length test)

(* --- batched training: throughput, determinism and batch-vs-loop identity -------------------- *)

(* Three claims to defend with numbers: mini-batching speeds up training
   even on one core (fewer tape nodes and blocked matmuls, not parallelism);
   the trained weight digest is byte-identical at any worker count; and a
   batched forward pass produces bitwise the same per-example losses as the
   per-example loop on the same weights. The baseline config
   (batch=1, micro=1, seq) replays the historical per-example loop.

   The model uses hidden_dim = 128 -- representative of the paper's MQAN
   (~200-dim states); batching amortizes fixed per-token overhead against
   O(hidden^2) matmul work, so toy-sized hidden layers understate the
   speedup a real model sees. Timing interleaves every config within each
   repetition and keeps the per-config best, so CPU frequency drift and
   background noise hit all arms equally. *)
let train_bench () =
  header "bench_train"
    "Batched training: examples/sec by batch size and worker count, weight-digest determinism";
  let lib, prims, rules = core_setup () in
  let seed = 5 in
  let rng = Genie_util.Rng.create seed in
  let g = Genie_templates.Grammar.create lib ~prims ~rules ~rng () in
  let data =
    Genie_synthesis.Engine.synthesize g
      { Genie_synthesis.Engine.default_config with
        seed;
        target_per_rule = 12;
        max_depth = 2 }
  in
  let n_pairs = if !quick then 60 else 120 in
  let pairs =
    List.filteri (fun i _ -> i < n_pairs)
      (List.map
         (fun (toks, p) ->
           let toks = List.filter (fun t -> t <> "\"") toks in
           (toks, Nn_syntax.to_tokens lib (Canonical.normalize lib p)))
         data)
  in
  let src_vocab = Genie_nn.Vocab.of_tokens (List.concat_map fst pairs) in
  let tgt_vocab = Genie_nn.Vocab.of_tokens (List.concat_map snd pairs) in
  let fresh () =
    Genie_nn.Seq2seq.create
      ~cfg:
        { Genie_nn.Seq2seq.default_config with
          Genie_nn.Seq2seq.seed;
          hidden_dim = 128 }
      ~src_vocab ~tgt_vocab ()
  in
  let n = List.length pairs in
  let epochs = 2 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "%d pairs, %d epochs per config, %d core(s) available\n" n epochs cores;
  Printf.printf
    "(on one core any speedup comes from batching itself -- fewer tape nodes \
     and blocked matmuls -- not from worker parallelism)\n\n";
  (* batched forward vs the per-example loop, on identical fresh weights:
     per-row losses must agree bit for bit *)
  let ident_model = fresh () in
  let k = min 16 n in
  let exs = Array.of_list (List.filteri (fun i _ -> i < k) pairs) in
  let tape = Genie_nn.Autodiff.new_tape () in
  let _, per_row =
    Genie_nn.Seq2seq.batch_loss tape ident_model ~training:true ~epoch:0
      ~example_ids:(Array.init k (fun i -> i))
      exs
  in
  let bits x = Int64.bits_of_float x in
  let batched =
    Array.init k (fun r -> bits (Genie_nn.Tensor.get per_row.Genie_nn.Autodiff.value r 0))
  in
  let looped =
    Array.init k (fun i ->
        let tape = Genie_nn.Autodiff.new_tape () in
        let l =
          Genie_nn.Seq2seq.example_loss ~epoch:0 ~example_id:i tape ident_model
            ~training:true (fst exs.(i)) (snd exs.(i))
        in
        bits (Genie_nn.Tensor.get l.Genie_nn.Autodiff.value 0 0))
  in
  let loss_identical = batched = looped in
  Printf.printf "batched vs per-example losses on %d examples: %s\n\n" k
    (if loss_identical then "bitwise identical" else "MISMATCH");
  (* throughput grid: batch size sweep on the calling domain, then worker
     sweep at the largest batch (micro fixed so the reduction tree -- and
     hence the weights -- are identical across the worker sweep). Configs
     are interleaved within each repetition; each keeps its best time. *)
  let configs =
    [ (1, 1, 0); (4, 4, 0); (16, 8, 0); (64, 16, 0); (64, 16, 2); (64, 16, 4) ]
  in
  let reps = if !quick then 1 else 5 in
  let run_config (batch, micro, workers) =
    let model = fresh () in
    let t0 = Unix.gettimeofday () in
    Genie_nn.Seq2seq.train ~epochs ~lr:5e-3 ~batch ~micro ~workers model pairs;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Genie_nn.Seq2seq.weight_digest model)
  in
  let best = Array.make (List.length configs) infinity in
  let digests = Array.make (List.length configs) "" in
  for _ = 1 to reps do
    List.iteri
      (fun i cfg ->
        let dt, d = run_config cfg in
        if dt < best.(i) then best.(i) <- dt;
        digests.(i) <- d)
      configs
  done;
  Printf.printf "%-22s %10s %12s  %s   (best of %d)\n" "config" "time s" "ex/s"
    "digest" reps;
  let rows =
    List.mapi
      (fun i (batch, micro, workers) ->
        let dt = best.(i) in
        let eps = float_of_int (n * epochs) /. Float.max 1e-9 dt in
        Printf.printf "batch=%-2d micro=%-2d %-6s %10.2f %12.1f  %s\n%!" batch
          micro
          (if workers <= 1 then "seq" else Printf.sprintf "w=%d" workers)
          dt eps digests.(i);
        (batch, micro, workers, dt, eps, digests.(i)))
      configs
  in
  let find b m w =
    List.find_opt (fun (b', m', w', _, _, _) -> b' = b && m' = m && w' = w) rows
  in
  let digest_of r = match r with Some (_, _, _, _, _, d) -> Some d | None -> None in
  let eps_of r = match r with Some (_, _, _, _, e, _) -> e | None -> 0.0 in
  let digest_deterministic =
    match
      (digest_of (find 64 16 0), digest_of (find 64 16 2), digest_of (find 64 16 4))
    with
    | Some d0, Some d2, Some d4 -> d0 = d2 && d0 = d4
    | _ -> false
  in
  let baseline_eps = eps_of (find 1 1 0) in
  let speedup_4w =
    if baseline_eps > 0.0 then eps_of (find 64 16 4) /. baseline_eps else 0.0
  in
  Printf.printf
    "\nweight digest identical across worker counts (batch=64, micro=16): %b\n"
    digest_deterministic;
  Printf.printf
    "4-worker batched speedup over the per-example sequential baseline: %.2fx\n%!"
    speedup_4w;
  (* checkpoint cost: capture + atomic write, then load + restore, of a
     trained model; the round-trip must reproduce the weight digest *)
  let ck_model = fresh () in
  Genie_nn.Seq2seq.train ~epochs:1 ~lr:5e-3 ~batch:64 ~micro:16 ck_model pairs;
  let snapshot =
    { Genie_nn.Seq2seq.snap_epoch = 2; snap_pos = 0; snap_rng = 0L; snap_step = 0 }
  in
  let ck_path = Filename.temp_file "genie-bench" ".ckpt" in
  let ck_reps = if !quick then 3 else 10 in
  let time_best f =
    let best = ref infinity in
    let out = ref None in
    for _ = 1 to ck_reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some r
    done;
    (!best, Option.get !out)
  in
  let write_s, () =
    time_best (fun () ->
        Genie_checkpoint.Checkpoint.save_model ~snapshot ~path:ck_path ck_model)
  in
  let load_s, loaded =
    time_best (fun () ->
        match Genie_checkpoint.Checkpoint.load_model ck_path with
        | Ok (m, _) -> m
        | Error e -> failwith e)
  in
  let ck_bytes = (Unix.stat ck_path).Unix.st_size in
  Sys.remove ck_path;
  let ck_roundtrip_ok =
    Genie_nn.Seq2seq.weight_digest loaded = Genie_nn.Seq2seq.weight_digest ck_model
  in
  Printf.printf
    "checkpoint: %d bytes, write %.2f ms, load+restore %.2f ms, round-trip \
     digest %s (best of %d)\n%!"
    ck_bytes (write_s *. 1e3) (load_s *. 1e3)
    (if ck_roundtrip_ok then "ok" else "MISMATCH")
    ck_reps;
  let open Genie_util.Json_lite in
  let row (batch, micro, workers, dt, eps, digest) =
    Obj
      [ ("batch", Int batch);
        ("micro", Int micro);
        ("workers", Int workers);
        ("seconds", Float dt);
        ("examples_per_sec", Float eps);
        ("speedup_vs_baseline",
         Float (if baseline_eps > 0.0 then eps /. baseline_eps else 0.0));
        ("digest", String digest) ]
  in
  write_file "BENCH_train.json"
    (Obj
       [ ("experiment", String "bench_train");
         ("pairs", Int n);
         ("epochs", Int epochs);
         ("seed", Int seed);
         ("cores", Int cores);
         ("batch_loss_identical_to_loop", Bool loss_identical);
         ("digest_identical_across_workers", Bool digest_deterministic);
         ("baseline_examples_per_sec", Float baseline_eps);
         ("speedup_4w_vs_sequential_baseline", Float speedup_4w);
         ("checkpoint",
          Obj
            [ ("bytes", Int ck_bytes);
              ("write_ms", Float (write_s *. 1e3));
              ("load_ms", Float (load_s *. 1e3));
              ("roundtrip_digest_ok", Bool ck_roundtrip_ok) ]);
         ("configs", List (List.map row rows)) ]);
  Printf.printf "wrote BENCH_train.json\n%!"

(* --- sharded synthesis pipeline -------------------------------------------------------------- *)

(* Constants and setup shared by [synth_bench] and the [--spill-phase] child
   processes: a child must rebuild the exact same seed corpus
   deterministically, so everything that shapes it lives here. *)
let synth_bench_seed = 51
let synth_bench_depth = 3
let synth_bench_target () = if !quick then 60 else 200
let spill_threshold = 4096
let spill_dir_path () =
  Filename.concat (Filename.get_temp_dir_name ()) "genie-bench-spill"

let synth_bench_setup () =
  let lib, prims, rules = core_setup () in
  let g =
    Genie_templates.Grammar.create lib ~prims ~rules
      ~rng:(Genie_util.Rng.create synth_bench_seed) ()
  in
  let cfg =
    { Genie_synthesis.Engine.default_config with
      seed = synth_bench_seed;
      target_per_rule = synth_bench_target ();
      max_depth = synth_bench_depth }
  in
  (lib, g, cfg)

let examples_of_derivations ds =
  List.filter_map
    (fun (d : Genie_templates.Derivation.t) ->
      match d.Genie_templates.Derivation.value with
      | Genie_templates.Derivation.V_frag (Ast.F_program p) ->
          Some (d.Genie_templates.Derivation.tokens, p)
      | _ -> None)
    ds
  |> List.mapi (fun i (tokens, program) ->
         Genie_dataset.Example.make ~id:i ~tokens ~program
           ~source:Genie_dataset.Example.Synthesized ())

(* Child-process entry for [--spill-phase MODE:SCALE]: runs exactly one
   streaming phase in a fresh process, so VmHWM is that phase's true
   lifetime peak, uncontaminated by the other experiments' heap. Writes
   "key value" lines to [--spill-out]. *)
let spill_phase_child spec out_path =
  let mode, sc =
    match String.index_opt spec ':' with
    | Some i ->
        ( String.sub spec 0 i,
          float_of_string
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | None -> failwith ("bad --spill-phase " ^ spec)
  in
  let lib, g, cfg = synth_bench_setup () in
  let ds, _ =
    Genie_synthesis.Engine.synthesize_derivations_stats ~workers:0 ~cache:true
      g cfg
  in
  let examples = examples_of_derivations ds in
  let gz = Genie_augment.Gazettes.create ~size:500 ~profile:`Extended () in
  (* a tight GC keeps the heap close to the live set, which is flat during
     the phase — heap slack from allocation churn would otherwise dominate
     the watermark *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 40 };
  let result =
    match mode with
    | "spill" -> (
        (* coarse shards (128 seeds) keep the merge fan-in small: the
           merge's memory is (runs x <=64K channel buffer), so the fan-in —
           not the corpus — must be what bounds it *)
        match
          Genie_synthesis.Stream.corpus_to_spill ~workers:0 ~expand_scale:sc
            ~chunk:256
            ~spill:
              { Genie_synthesis.Stream.dir = spill_dir_path ();
                threshold = spill_threshold }
            lib gz ~seed:(synth_bench_seed + 80) examples
        with
        | Error e -> Error e
        | Ok st ->
            Ok
              [ ("records", string_of_int st.Genie_synthesis.Stream.st_records);
                ("runs", string_of_int st.Genie_synthesis.Stream.st_runs);
                ("run_bytes",
                 string_of_int st.Genie_synthesis.Stream.st_run_bytes);
                ("digest", st.Genie_synthesis.Stream.st_digest) ])
    | "memory" ->
        let records =
          Genie_synthesis.Stream.corpus_records ~workers:0 ~expand_scale:sc
            lib gz ~seed:(synth_bench_seed + 80) examples
        in
        let n, digest = Genie_synthesis.Stream.corpus_digest records in
        (* keep the materialized corpus live so the peak includes it *)
        ignore (Sys.opaque_identity (List.length records));
        Ok
          [ ("records", string_of_int n); ("runs", "0"); ("run_bytes", "0");
            ("digest", digest) ]
    | m -> Error ("unknown --spill-phase mode " ^ m)
  in
  match result with
  | Error e ->
      prerr_endline ("spill phase failed: " ^ e);
      exit 1
  | Ok fields ->
      let fields =
        match Genie_util.Resource.peak_rss_kb () with
        | Some kb -> fields @ [ ("peak_rss_kb", string_of_int kb) ]
        | None -> fields
      in
      let oc = open_out out_path in
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) fields;
      close_out oc

(* Speedup, memo-cache hit rate and merge overhead of the domain-parallel
   synthesis pipeline against its own sequential fallback (the same shard
   algorithm on the calling domain, so the corpora are byte-identical and
   the comparison is pure scheduling). Augmentation rides the same Pool
   fan-out, so its sharded path is measured too. *)
let synth_bench () =
  header "bench_synth"
    "Sharded synthesis: speedup, cache hit rate and merge overhead by worker count";
  let lib, g, cfg = synth_bench_setup () in
  let seed = synth_bench_seed in
  let target = synth_bench_target () in
  let depth = synth_bench_depth in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "depth-%d corpus, target %d per rule, seed %d, %d core(s) available\n\n"
    depth target seed cores;
  let corpus_key ds =
    String.concat "\n" (List.map Genie_templates.Derivation.sort_key ds)
  in
  let run_config ?(cache = true) workers =
    let ds, stats =
      Genie_synthesis.Engine.synthesize_derivations_stats ~workers ~cache g cfg
    in
    (workers, ds, stats)
  in
  let open Genie_synthesis.Engine in
  Printf.printf "%-10s %10s %10s %12s %12s %10s\n" "workers" "pairs" "time s"
    "cache hit%" "merge ovh%" "speedup";
  let _, seq_ds, seq_stats = run_config 0 in
  let seq_key = corpus_key seq_ds in
  let seq_s = seq_stats.total_ns /. 1e9 in
  let row (workers, ds, (stats : stats)) =
    let t = stats.total_ns /. 1e9 in
    let hit_rate =
      float_of_int stats.cache_hits
      /. Float.max 1.0 (float_of_int (stats.cache_hits + stats.cache_misses))
    in
    let merge_pct = 100. *. stats.merge_ns /. Float.max 1.0 stats.total_ns in
    let speedup = seq_s /. Float.max 1e-9 t in
    let deterministic = corpus_key ds = seq_key in
    Printf.printf "%-10s %10d %10.2f %11.1f%% %11.1f%% %9.2fx%s\n%!"
      (if workers = 0 then "seq" else string_of_int workers)
      (List.length ds) t (100. *. hit_rate) merge_pct speedup
      (if deterministic then "" else "  CORPUS MISMATCH");
    (workers, t, hit_rate, merge_pct, speedup, deterministic)
  in
  let rows =
    List.fold_left
      (fun acc w ->
        let r = if w = 0 then row (0, seq_ds, seq_stats) else row (run_config w) in
        r :: acc)
      [] [ 0; 1; 2; 4 ]
    |> List.rev
  in
  (* cache contribution: same sequential run with the memo cache disabled *)
  let _, nocache_ds, nocache_stats = run_config ~cache:false 0 in
  let nocache_s = nocache_stats.total_ns /. 1e9 in
  let cache_transparent = corpus_key nocache_ds = seq_key in
  Printf.printf
    "\ncache off (seq): %.2fs -> memo cache saves %.1f%% (corpus %s)\n"
    nocache_s
    (100. *. (1. -. (seq_s /. Float.max 1e-9 nocache_s)))
    (if cache_transparent then "identical" else "MISMATCH");
  (* sharded augmentation over the same Pool fan-out *)
  let gz = Genie_augment.Gazettes.create ~size:500 () in
  let examples = examples_of_derivations seq_ds in
  let time f =
    let t0 = Genie_observe.Tracer.now_ns () in
    let r = f () in
    (r, (Genie_observe.Tracer.now_ns () -. t0) /. 1e9)
  in
  let aug w =
    time (fun () ->
        Genie_augment.Expand.expand_dataset_sharded ~scale:0.5 ~workers:w lib gz
          ~seed:(seed + 70) examples)
  in
  let aug_seq, aug_seq_s = aug 0 in
  let aug_par, aug_par_s = aug 4 in
  let aug_deterministic = aug_seq = aug_par in
  Printf.printf
    "augment (sharded): %d -> %d examples, seq %.2fs, 4 workers %.2fs (%s)\n"
    (List.length examples) (List.length aug_seq) aug_seq_s aug_par_s
    (if aug_deterministic then "identical" else "MISMATCH");
  (* streaming spill pipeline: the corpus grows >= 10x via expand_scale
     while peak RSS stays flat, because expansion shards spill sorted runs
     to disk and the coordinator k-way-merges them
     (Stream.corpus_to_spill). Each phase runs in a fresh child process
     (this same binary with --spill-phase), so its VmHWM from
     /proc/self/status is that phase's true lifetime peak, not heap slack
     inherited from the other experiments (Linux only; fields are null
     elsewhere). The in-memory child at the large scale holds the whole
     corpus live — it both checks digest byte-identity and provides the
     RSS contrast. *)
  let scale_small = 0.25 and scale_large = 16.0 in
  let run_child mode sc =
    let out = Filename.temp_file "genie-spill-phase" ".txt" in
    let cmd =
      Printf.sprintf "%s --spill-phase %s:%g --spill-out %s%s"
        (Filename.quote Sys.executable_name)
        mode sc (Filename.quote out)
        (if !quick then " --quick" else "")
    in
    let (), secs =
      time (fun () ->
          if Sys.command cmd <> 0 then
            failwith ("spill phase child failed: " ^ cmd))
    in
    let ic = open_in out in
    let fields = ref [] in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line ' ' with
         | Some i ->
             fields :=
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) )
               :: !fields
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Sys.remove out;
    (!fields, secs)
  in
  let geti fs k = int_of_string (List.assoc k fs) in
  let rss_of fs = Option.map int_of_string (List.assoc_opt "peak_rss_kb" fs) in
  let small, spill_small_s = run_child "spill" scale_small in
  let large, spill_large_s = run_child "spill" scale_large in
  let mem, mem_large_s = run_child "memory" scale_large in
  let records_small = geti small "records" in
  let records_large = geti large "records" in
  let runs_large = geti large "runs" in
  let digest_large = List.assoc "digest" large in
  let rss_small = rss_of small
  and rss_large = rss_of large
  and rss_mem = rss_of mem in
  let digest_identical_memory =
    List.assoc "digest" mem = digest_large
    && geti mem "records" = records_large
  in
  (* in-process 4-worker spill: digest identity across the domain fan-out *)
  let gz_ext = Genie_augment.Gazettes.create ~size:500 ~profile:`Extended () in
  let st_4w =
    match
      Genie_synthesis.Stream.corpus_to_spill ~workers:4
        ~expand_scale:scale_large
        ~spill:
          { Genie_synthesis.Stream.dir = spill_dir_path ();
            threshold = spill_threshold }
        lib gz_ext ~seed:(seed + 80) examples
    with
    | Error e -> failwith ("bench_synth spill phase: " ^ e)
    | Ok st -> st
  in
  let digest_identical_4w =
    st_4w.Genie_synthesis.Stream.st_digest = digest_large
  in
  (match st_4w.Genie_synthesis.Stream.st_corpus_path with
  | Some p when Sys.file_exists p -> Sys.remove p
  | _ -> ());
  (try Sys.rmdir (spill_dir_path ()) with Sys_error _ -> ());
  let growth =
    float_of_int records_large /. Float.max 1.0 (float_of_int records_small)
  in
  let rss_flat =
    match (rss_small, rss_large) with
    | Some s, Some l -> Some (float_of_int l <= 1.1 *. float_of_int s)
    | _ -> None
  in
  let pp_kb = function Some k -> string_of_int k ^ " kB" | None -> "n/a" in
  Printf.printf
    "streaming spill: %d -> %d records (%.1fx), %d runs, peak RSS %s -> %s \
     (in-memory %s), digests %s\n"
    records_small records_large growth runs_large (pp_kb rss_small)
    (pp_kb rss_large) (pp_kb rss_mem)
    (if digest_identical_memory && digest_identical_4w then "identical"
     else "MISMATCH");
  (match rss_flat with
  | Some true -> ()
  | Some false ->
      Printf.printf
        "  WARNING: peak RSS grew more than 10%% between spill phases\n"
  | None -> Printf.printf "  (VmHWM unavailable on this platform)\n");
  let speedup_4w =
    match List.find_opt (fun (w, _, _, _, _, _) -> w = 4) rows with
    | Some (_, _, _, _, s, _) -> s
    | None -> 0.0
  in
  if cores < 4 then
    Printf.printf
      "(only %d core(s) visible to the runtime: worker domains time-share and \
       cannot speed up CPU-bound synthesis; run on >= 4 cores to see the \
       parallel speedup)\n%!"
      cores;
  let open Genie_util.Json_lite in
  let row_json (workers, t, hit_rate, merge_pct, speedup, deterministic) =
    Obj
      [ ("workers", Int workers);
        ("seconds", Float t);
        ("cache_hit_rate", Float hit_rate);
        ("merge_overhead_pct", Float merge_pct);
        ("speedup_vs_seq", Float speedup);
        ("corpus_identical_to_seq", Bool deterministic) ]
  in
  write_file "BENCH_synth.json"
    (Obj
       [ ("experiment", String "bench_synth");
         ("depth", Int depth);
         ("target_per_rule", Int target);
         ("seed", Int seed);
         ("cores", Int cores);
         ("pairs", Int (List.length seq_ds));
         ("shards", Int seq_stats.shards);
         ("sequential_seconds", Float seq_s);
         ("speedup_4w", Float speedup_4w);
         ("cache_off_seconds", Float nocache_s);
         ("cache_transparent", Bool cache_transparent);
         ("configs", List (List.map row_json rows));
         ("augment",
          Obj
            [ ("examples", Int (List.length examples));
              ("expanded", Int (List.length aug_seq));
              ("sequential_seconds", Float aug_seq_s);
              ("four_worker_seconds", Float aug_par_s);
              ("identical", Bool aug_deterministic) ]);
         ("streaming",
          let kb = function Some k -> Int k | None -> Null in
          Obj
            [ ("seeds", Int (List.length examples));
              ("spill_threshold", Int spill_threshold);
              ("expand_scale_small", Float scale_small);
              ("expand_scale_large", Float scale_large);
              ("records_small", Int records_small);
              ("records_large", Int records_large);
              ("growth", Float growth);
              ("growth_at_least_10x", Bool (growth >= 10.0));
              ("runs_large", Int runs_large);
              ("run_bytes_large", Int (geti large "run_bytes"));
              ("digest", String digest_large);
              ("spill_child_seconds_small", Float spill_small_s);
              ("spill_child_seconds_large", Float spill_large_s);
              ("memory_child_seconds_large", Float mem_large_s);
              ("peak_rss_spill_small_kb", kb rss_small);
              ("peak_rss_spill_large_kb", kb rss_large);
              ("peak_rss_memory_large_kb", kb rss_mem);
              ("rss_flat",
               match rss_flat with Some b -> Bool b | None -> Null);
              ("digest_identical_memory", Bool digest_identical_memory);
              ("digest_identical_4w", Bool digest_identical_4w) ]) ]);
  Printf.printf "wrote BENCH_synth.json\n%!"

(* --- Bechamel timing micro-benchmarks -------------------------------------------------------- *)

let timing () =
  header "timing" "Bechamel timing micro-benchmarks (one per experiment component)";
  let lib, prims, rules = core_setup () in
  let program =
    Parser.parse_program
      "monitor ((@com.gmail.inbox()) filter is_important == true) => @com.facebook.post(status = snippet);"
  in
  let a = shared_artifacts () in
  let model = a.Pipeline.model in
  let sentence = Genie_util.Tok.tokenize "post my important emails on facebook" in
  let rng = Genie_util.Rng.create 3 in
  let g = Genie_templates.Grammar.create lib ~prims ~rules ~rng () in
  let nn_model =
    let src_vocab = Genie_nn.Vocab.of_tokens sentence in
    let tgt_vocab = Genie_nn.Vocab.of_tokens (Nn_syntax.to_tokens lib program) in
    Genie_nn.Seq2seq.create ~src_vocab ~tgt_vocab ()
  in
  let open Bechamel in
  let tests =
    [ Test.make ~name:"fig1_end_to_end/execute_program"
        (Staged.stage (fun () ->
             let env = Genie_runtime.Exec.create lib in
             ignore (Genie_runtime.Exec.run ~ticks:5 env program)));
      Test.make ~name:"fig7_dataset/classify_program"
        (Staged.stage (fun () -> ignore (Genie_dataset.Stats.classify program)));
      Test.make ~name:"tab_synthesis/synthesize_depth2"
        (Staged.stage (fun () ->
             ignore
               (Genie_synthesis.Engine.synthesize g
                  { Genie_synthesis.Engine.default_config with
                    target_per_rule = 5;
                    max_depth = 2 })));
      Test.make ~name:"fig8_tab3/aligner_predict"
        (Staged.stage (fun () -> ignore (Genie_parser_model.Aligner.predict model sentence)));
      Test.make ~name:"canonicalize"
        (Staged.stage (fun () -> ignore (Canonical.normalize lib program)));
      Test.make ~name:"parse_surface_syntax"
        (Staged.stage (fun () ->
             ignore
               (Parser.parse_program
                  "now => (@com.gmail.inbox()) filter sender_name == \"alice\" => notify;")));
      Test.make ~name:"nn_syntax_roundtrip"
        (Staged.stage (fun () ->
             ignore (Nn_syntax.of_tokens lib (Nn_syntax.to_tokens lib program))));
      Test.make ~name:"bench_mqan/forward_backward"
        (Staged.stage (fun () ->
             let tape = Genie_nn.Autodiff.new_tape () in
             let loss =
               Genie_nn.Seq2seq.example_loss tape nn_model ~training:true sentence
                 [ "now"; "=>"; "notify" ]
             in
             Genie_nn.Autodiff.backward tape loss)) ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ t ] ->
              collected := (name, t) :: !collected;
              Printf.printf "%-40s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
        results)
    tests;
  let open Genie_util.Json_lite in
  write_file "BENCH_timing.json"
    (Obj
       [ ("experiment", String "timing");
         ("results",
          List
            (List.map
               (fun (name, ns) ->
                 Obj [ ("name", String name); ("ns_per_run", Float ns) ])
               (List.rev !collected))) ]);
  Printf.printf "wrote BENCH_timing.json\n%!"

(* --- compilation: bytecode vs tree-walking interpreter ---------------------------- *)

(* The compiled path's value proposition, measured: pay lowering once per
   distinct program, then execute pre-resolved plans. Three disciplines over
   the same distinct synthesized programs — interpret (typecheck + tree-walk
   every run), compile-once-run-many, and compiled-cache-hit (the serve hot
   path: LRU lookup + run) — plus the serve-path end-to-end delta. Byte
   identity between the paths is enforced everywhere (exit 3 on divergence):
   the benchmark doubles as a differential check at realistic scale. *)
let compile_bench () =
  header "bench_compile"
    "Compilation: interpret vs compile-once vs cache-hit, and the serve-path delta";
  let a = shared_artifacts () in
  let lib = a.Pipeline.lib in
  let programs =
    let seen = Hashtbl.create 64 in
    let keep = if !quick then 12 else 30 in
    List.filteri (fun i _ -> i < keep)
      (List.filter_map
         (fun (_, p) ->
           let key = Printer.program_to_string p in
           if Hashtbl.mem seen key then None
           else begin
             Hashtbl.replace seen key ();
             Some (key, p)
           end)
         a.Pipeline.synthesized)
  in
  let runs = if !quick then 50 else 200 in
  let ticks = 3 in
  let render (notifications, effects) =
    String.concat "\n"
      (List.map
         (fun r ->
           String.concat ";" (List.map (fun (n, v) -> n ^ "=" ^ Value.to_string v) r))
         notifications
      @ List.map
          (fun (fn, args) ->
            Ast.Fn.to_string fn ^ ":"
            ^ String.concat ";" (List.map (fun (n, v) -> n ^ "=" ^ Value.to_string v) args))
          effects)
  in
  (* differential guard: every program, both paths, fresh envs, same seed *)
  List.iter
    (fun (key, p) ->
      let interp =
        render (Genie_runtime.Exec.run ~ticks (Genie_runtime.Exec.create ~seed:7 lib) p)
      in
      let compiled =
        render
          (Genie_runtime.Compile.run ~ticks (Genie_runtime.Exec.create ~seed:7 lib)
             (Genie_runtime.Compile.compile lib p))
      in
      if interp <> compiled then begin
        Printf.eprintf "bench_compile: divergence on %s\n" key;
        exit 3
      end)
    programs;
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let interp_s =
    time (fun () ->
        List.iter
          (fun (_, p) ->
            for r = 1 to runs do
              ignore
                (Genie_runtime.Exec.run ~ticks (Genie_runtime.Exec.create ~seed:r lib) p)
            done)
          programs)
  in
  let compiled_of = List.map (fun (k, p) -> (k, Genie_runtime.Compile.compile lib p)) programs in
  let compile_s =
    time (fun () ->
        List.iter (fun (_, p) -> ignore (Genie_runtime.Compile.compile lib p)) programs)
  in
  let once_s =
    time (fun () ->
        List.iter
          (fun (_, c) ->
            for r = 1 to runs do
              ignore
                (Genie_runtime.Compile.run ~ticks (Genie_runtime.Exec.create ~seed:r lib) c)
            done)
          compiled_of)
  in
  let cache = Genie_runtime.Compile_cache.create ~capacity:1024 in
  let cache_s =
    time (fun () ->
        List.iter
          (fun (key, p) ->
            for r = 1 to runs do
              let c =
                match Genie_runtime.Compile_cache.find_or_compile cache lib ~key p with
                | `Hit c | `Miss c -> c
              in
              ignore (Genie_runtime.Compile.run ~ticks (Genie_runtime.Exec.create ~seed:r lib) c)
            done)
          programs)
  in
  let n_execs = List.length programs * runs in
  let per_run s = 1e6 *. s /. float_of_int n_execs in
  let cstats = Genie_runtime.Compile_cache.stats cache in
  Printf.printf "%d distinct programs x %d runs (ticks=%d)\n\n"
    (List.length programs) runs ticks;
  Printf.printf "%-26s %12s %14s\n" "discipline" "total s" "us/execution";
  Printf.printf "%-26s %12.3f %14.2f\n" "interpret" interp_s (per_run interp_s);
  Printf.printf "%-26s %12.3f %14.2f  (+ %.2f us compile each, once)\n"
    "compile-once-run-many" once_s (per_run once_s)
    (1e6 *. compile_s /. float_of_int (List.length programs));
  Printf.printf "%-26s %12.3f %14.2f  (%d hits / %d lookups)\n" "compiled-cache-hit"
    cache_s (per_run cache_s) cstats.Genie_runtime.Compile_cache.hits
    (cstats.Genie_runtime.Compile_cache.hits + cstats.Genie_runtime.Compile_cache.misses);
  Printf.printf "\nspeedup, cache-hit over interpret: %.2fx\n%!"
    (interp_s /. Float.max 1e-9 cache_s);
  (* serve-path end to end: identical traffic, compiled on vs off *)
  let corpus =
    List.map
      (fun (toks, _) -> String.concat " " toks)
      (a.Pipeline.synthesized @ a.Pipeline.paraphrases)
  in
  let n_requests = if !quick then 300 else 800 in
  let requests =
    Genie_serve.Traffic.generate ~execute:true
      ~rng:(Genie_util.Rng.create 29)
      ~utterances:corpus n_requests
  in
  let response_digest (r : Genie_serve.Response.t) =
    Printf.sprintf "#%d %s %s notif=%d fx=%d err=%s" r.Genie_serve.Response.id
      (Genie_serve.Response.status_to_string r.Genie_serve.Response.status)
      (Option.value ~default:"-" r.Genie_serve.Response.program_text)
      r.Genie_serve.Response.notifications r.Genie_serve.Response.side_effects
      (Option.value ~default:"-" r.Genie_serve.Response.error)
  in
  let open Genie_serve.Server in
  Printf.printf "\nserve path (%d execute-requests):\n" n_requests;
  Printf.printf "%-16s %10s %10s %10s %16s\n" "config" "req/s" "p50 ms" "mean ms"
    "compile hit/miss";
  let serve_rows =
    List.map
      (fun (workers, compiled) ->
        let server = of_artifacts ~workers ~cache_capacity:4096 ~compiled a in
        let rs = run_batch server requests in
        let s = stats server in
        shutdown server;
        let label =
          (if workers <= 1 then "seq" else string_of_int workers ^ "w")
          ^ if compiled then "+compiled" else "+interp"
        in
        Printf.printf "%-16s %10.0f %10.2f %10.2f %10d/%d\n%!" label s.throughput_rps
          s.p50_ms s.mean_ms s.compile_hits s.compile_misses;
        (label, workers, compiled, s, List.map response_digest rs))
      [ (0, false); (0, true); (2, false); (2, true); (4, false); (4, true) ]
  in
  (* responses must be digest-identical compiled vs interpreted at every
     worker count *)
  List.iter
    (fun w ->
      let at c =
        List.find_map
          (fun (_, w', c', _, d) -> if w' = w && c' = c then Some d else None)
          serve_rows
      in
      match (at false, at true) with
      | Some interp, Some comp when interp <> comp ->
          Printf.eprintf
            "bench_compile: serve responses diverge compiled vs interpreted at %d workers\n"
            w;
          exit 3
      | _ -> ())
    [ 0; 2; 4 ];
  Printf.printf "serve responses digest-identical compiled vs interpreted (0/2/4 workers)\n%!";
  let open Genie_util.Json_lite in
  write_file "BENCH_compile.json"
    (Obj
       [ ("experiment", String "bench_compile");
         ("programs", Int (List.length programs));
         ("runs_per_program", Int runs);
         ("ticks", Int ticks);
         ("interpret_us_per_exec", Float (per_run interp_s));
         ("compile_once_us_per_exec", Float (per_run once_s));
         ("cache_hit_us_per_exec", Float (per_run cache_s));
         ("compile_us_per_program",
          Float (1e6 *. compile_s /. float_of_int (List.length programs)));
         ("cache_hit_speedup_over_interpret",
          Float (interp_s /. Float.max 1e-9 cache_s));
         ("serve",
          List
            (List.map
               (fun (label, workers, compiled, (s : stats), _) ->
                 Obj
                   [ ("label", String label);
                     ("workers", Int workers);
                     ("compiled", Bool compiled);
                     ("throughput_rps", Float s.throughput_rps);
                     ("p50_ms", Float s.p50_ms);
                     ("mean_ms", Float s.mean_ms);
                     ("compile_hits", Int s.compile_hits);
                     ("compile_misses", Int s.compile_misses);
                     ("compile_evictions", Int s.compile_evictions) ])
               serve_rows)) ]);
  Printf.printf "wrote BENCH_compile.json\n%!"

let () =
  if !spill_phase <> "" then begin
    spill_phase_child !spill_phase !spill_out;
    exit 0
  end;
  let experiments =
    [ ("fig1_end_to_end", fig1);
      ("fig7_dataset_characteristics", fig7);
      ("tab_synthesis_stats", synthesis_stats);
      ("fig8_training_strategies", fig8);
      ("tab3_ablation", tab3);
      ("tab_error_analysis", error_analysis);
      ("tab_paraphrase_limitation", paraphrase_limitation);
      ("fig9_spotify", fig9_spotify);
      ("fig9_tacl", fig9_tacl);
      ("fig9_aggregation", fig9_aggregation);
      ("bench_mqan_small", mqan_small);
      ("bench_train", train_bench);
      ("bench_synth", synth_bench);
      ("bench_compile", compile_bench) ]
  in
  List.iter (fun (id, run) -> if enabled id then run ()) experiments;
  if enabled "timing" && not !skip_timing then timing ();
  Printf.printf "\nAll requested experiments completed.\n"
