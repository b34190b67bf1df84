(* The genie command-line tool: synthesize data, simulate paraphrasing, train
   and evaluate a parser, translate sentences, and execute ThingTalk programs
   on the mock runtime. *)

open Cmdliner
open Genie_thingtalk

let setup () =
  let lib = Genie_thingpedia.Thingpedia.core_library () in
  let prims = Genie_thingpedia.Thingpedia.core_templates () in
  let rules = Genie_templates.Rules_thingtalk.rules lib in
  (lib, prims, rules)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let run () =
    let lib, prims, rules = setup () in
    Printf.printf "Thingpedia: %s\n" (Genie_thingpedia.Thingpedia.stats lib);
    Printf.printf "primitive templates: %d\n" (List.length prims);
    Printf.printf "construct templates: %d\n" (List.length rules);
    let full = Genie_thingpedia.Thingpedia.full_library () in
    Printf.printf "with Spotify skill: %s\n" (Genie_thingpedia.Thingpedia.stats full)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show skill-library and template statistics")
    Term.(const run $ const ())

(* --- cheatsheet ----------------------------------------------------------------- *)

(* The paper's discovery mechanism: users scan a cheatsheet of phrases for a
   random sample of skills (section 5.1). *)
let cheatsheet_cmd =
  let skills = Arg.(value & opt int 15 & info [ "skills" ] ~doc:"Skills to sample") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed") in
  let run skills seed =
    let lib, prims, _ = setup () in
    let rng = Genie_util.Rng.create seed in
    let classes = Genie_util.Rng.sample rng skills lib.Schema.Library.classes in
    List.iter
      (fun (c : Schema.cls) ->
        Printf.printf "== %s (%s)\n" c.Schema.c_name c.Schema.c_doc;
        List.iter
          (fun (f : Schema.func) ->
            let phrase =
              List.find_opt
                (fun (t : Genie_thingpedia.Prim.t) ->
                  Genie_thingtalk.Ast.Fn.equal t.Genie_thingpedia.Prim.fn (Schema.fn_ref f))
                prims
            in
            match phrase with
            | Some t ->
                Printf.printf "   %-10s %s\n"
                  (match f.Schema.f_kind with
                  | Schema.Query _ -> "[query]"
                  | Schema.Action -> "[action]")
                  t.Genie_thingpedia.Prim.utterance
            | None -> ())
          c.Schema.c_functions)
      classes
  in
  Cmd.v
    (Cmd.info "cheatsheet" ~doc:"Print a cheatsheet of phrases for a sample of skills")
    Term.(const run $ skills $ seed)

(* --- synthesize --------------------------------------------------------------- *)

let synthesize_cmd =
  let count =
    Arg.(value & opt int 20 & info [ "n" ] ~doc:"Number of sentences to print")
  in
  let target =
    Arg.(value & opt int 100 & info [ "target" ] ~doc:"Target derivations per rule")
  in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~doc:"Maximum derivation depth") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  let workers =
    Arg.(value & opt string "0"
         & info [ "workers" ]
             ~doc:"Comma-separated worker counts (0 = sequential). The corpus \
                   must be byte-identical across all of them (exit 3 \
                   otherwise).")
  in
  let faults =
    Arg.(value & opt string ""
         & info [ "faults" ]
             ~doc:"Seeded shard fault schedule, e.g. \
                   'seed=7,crash=0.1,drop=0.05'. Crashed shards are retried \
                   deterministically; the corpus must be unchanged.")
  in
  let trace =
    Arg.(value & opt string ""
         & info [ "trace" ]
             ~doc:"Write the first configuration's span stream to this JSONL \
                   file, plus per-configuration structural trace digests to \
                   FILE.digest. Synthesis traces are strict: digests must \
                   agree across worker counts even under faults (exit 3 \
                   otherwise).")
  in
  let digest_dir =
    Arg.(value & opt string ""
         & info [ "digest-dir" ]
             ~doc:"Write one synth_d<K>.digest file per depth (the golden \
                   corpus digest format under test/golden/) to this \
                   directory.")
  in
  let spill_dir =
    Arg.(value & opt string ""
         & info [ "spill-dir" ]
             ~doc:"Run the streaming expansion pipeline: shards spill sorted \
                   runs into this directory and an external k-way merge \
                   writes DIR/corpus.shard. The disk corpus digest must be \
                   byte-identical to the in-memory path at every worker \
                   count (exit 3 otherwise).")
  in
  let spill_threshold =
    Arg.(value & opt int 512
         & info [ "spill-threshold" ]
             ~doc:"Records buffered per shard before a sorted run is flushed \
                   to disk (0 = unbounded, one run per shard).")
  in
  let expand =
    Arg.(value & opt float 1.0
         & info [ "expand" ]
             ~doc:"Parameter-expansion scale: multiplies the paper's \
                   per-example expansion multipliers, growing the corpus \
                   10-100x for paper-scale runs.")
  in
  let run n target depth seed workers_csv faults trace digest_dir spill_dir
      spill_threshold expand =
    let lib, prims, rules = setup () in
    let g =
      Genie_templates.Grammar.create lib ~prims ~rules
        ~rng:(Genie_util.Rng.create seed) ()
    in
    let cfg =
      { Genie_synthesis.Engine.default_config with
        seed;
        target_per_rule = target;
        max_depth = depth }
    in
    let fault =
      if faults = "" then Genie_conc.Fault.none
      else
        match Genie_conc.Fault.of_string faults with
        | Ok f -> f
        | Error e ->
            Printf.eprintf "bad --faults spec: %s\n" e;
            exit 2
    in
    if Genie_conc.Fault.active fault then
      Printf.printf "fault schedule: %s\n" (Genie_conc.Fault.to_string fault);
    let worker_counts =
      match
        List.filter_map int_of_string_opt
          (Genie_util.Tok.split_on_string ~sep:"," workers_csv)
      with
      | [] -> [ 0 ]
      | ws -> ws
    in
    let corpus_key ds =
      String.concat "\n" (List.map Genie_templates.Derivation.sort_key ds)
    in
    let runs =
      List.map
        (fun w ->
          let tracer =
            if trace = "" then Genie_observe.Tracer.disabled
            else Genie_observe.Tracer.create ~seed ~capacity:65536 ~slots:1 ()
          in
          let ds, stats =
            Genie_synthesis.Engine.synthesize_derivations_stats ~tracer
              ~workers:w ~fault g cfg
          in
          let dt = stats.Genie_synthesis.Engine.total_ns /. 1e9 in
          Printf.printf
            "workers=%-3s pairs=%d shards=%d retries=%d cache=%d/%d \
             merge=%.1f%% %.2fs\n%!"
            (if w <= 1 then "seq" else string_of_int w)
            (List.length ds) stats.Genie_synthesis.Engine.shards
            stats.Genie_synthesis.Engine.shard_retries
            stats.Genie_synthesis.Engine.cache_hits
            (stats.Genie_synthesis.Engine.cache_hits
            + stats.Genie_synthesis.Engine.cache_misses)
            (100.
            *. stats.Genie_synthesis.Engine.merge_ns
            /. Float.max 1.0 stats.Genie_synthesis.Engine.total_ns)
            dt;
          (w, ds, Genie_observe.Tracer.spans tracer))
        worker_counts
    in
    let _, first, _ = List.hd runs in
    (match runs with
    | (_, ds0, _) :: rest ->
        let k0 = corpus_key ds0 in
        List.iter
          (fun (w, ds, _) ->
            if corpus_key ds <> k0 then begin
              Printf.eprintf
                "corpus at workers=%d differs from workers=%d: determinism \
                 violation\n"
                w
                (let w0, _, _ = List.hd runs in
                 w0);
              exit 3
            end)
          rest
    | [] -> ());
    if digest_dir <> "" then begin
      (try Unix.mkdir digest_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      for d = 1 to cfg.Genie_synthesis.Engine.max_depth do
        let pairs, hex = Genie_synthesis.Engine.corpus_digest first ~depth:d in
        let oc =
          open_out (Filename.concat digest_dir (Printf.sprintf "synth_d%d.digest" d))
        in
        Printf.fprintf oc "depth=%d pairs=%d digest=%s\n" d pairs hex;
        close_out oc
      done;
      Printf.printf "corpus digests written to %s/synth_d*.digest\n" digest_dir
    end;
    if trace <> "" then begin
      let digests =
        List.map
          (fun (w, _, spans) ->
            (w, List.length spans, Genie_observe.Export.digest ~strict:true spans))
          runs
      in
      (match runs with
      | (_, _, spans) :: _ -> Genie_observe.Export.write_jsonl trace spans
      | [] -> ());
      let oc = open_out (trace ^ ".digest") in
      List.iter
        (fun (w, n, d) ->
          Printf.fprintf oc "workers=%s spans=%d strict=true digest=%s\n"
            (if w <= 1 then "seq" else string_of_int w)
            n d)
        digests;
      close_out oc;
      Printf.printf "trace digests in %s.digest\n" trace;
      match digests with
      | (_, _, d0) :: rest when List.exists (fun (_, _, d) -> d <> d0) rest ->
          prerr_endline "trace digests differ across worker counts";
          exit 3
      | _ -> ()
    end;
    if spill_dir <> "" then begin
      let module Stream = Genie_synthesis.Stream in
      let pairs =
        List.filter_map
          (fun (d : Genie_templates.Derivation.t) ->
            match d.Genie_templates.Derivation.value with
            | Genie_templates.Derivation.V_frag (Ast.F_program p) ->
                Some (d.Genie_templates.Derivation.tokens, p)
            | _ -> None)
          first
      in
      let seeds = Stream.seeds_of_pairs pairs in
      let gz =
        Genie_augment.Gazettes.create ~profile:`Extended ()
      in
      let spill = { Stream.dir = spill_dir; threshold = spill_threshold } in
      let mem_records =
        Stream.corpus_records ~workers:(List.hd worker_counts) ~fault
          ~expand_scale:expand lib gz ~seed seeds
      in
      let mem_n, mem_digest = Stream.corpus_digest mem_records in
      Printf.printf "\nstreaming expansion: %d seeds -> %d records (memory \
                     digest %s)\n%!"
        (List.length seeds) mem_n mem_digest;
      List.iter
        (fun w ->
          match
            Stream.corpus_to_spill ~workers:w ~fault ~expand_scale:expand
              ~spill lib gz ~seed seeds
          with
          | Error e ->
              Printf.eprintf "spill pipeline failed at workers=%d: %s\n" w e;
              exit 2
          | Ok st ->
              Printf.printf
                "workers=%-3s spill: records=%d runs=%d spilled=%dKB \
                 digest=%s\n%!"
                (if w <= 1 then "seq" else string_of_int w)
                st.Stream.st_records st.Stream.st_runs
                (st.Stream.st_run_bytes / 1024) st.Stream.st_digest;
              if st.Stream.st_digest <> mem_digest
                 || st.Stream.st_records <> mem_n
              then begin
                Printf.eprintf
                  "disk corpus at workers=%d differs from the in-memory \
                   path: determinism violation\n"
                  w;
                exit 3
              end;
              (match
                 Genie_dataset.Spill.stray_files ~dir:spill_dir
                   ~keep:[ Stream.corpus_file ]
               with
              | [] -> ()
              | leaked ->
                  Printf.eprintf "leaked spill files: %s\n"
                    (String.concat ", " leaked);
                  exit 3))
        worker_counts;
      (* the merged corpus must also read back byte-identically *)
      (match
         Genie_dataset.Reader.digest_file
           (Filename.concat spill_dir Stream.corpus_file)
       with
      | Error e ->
          Printf.eprintf "corpus read-back failed: %s\n" e;
          exit 2
      | Ok (rn, rd) ->
          if rn <> mem_n || rd <> mem_digest then begin
            Printf.eprintf "corpus read-back digest mismatch\n";
            exit 3
          end);
      Printf.printf "disk == memory at every worker count; corpus in %s/%s\n"
        spill_dir Stream.corpus_file
    end;
    Printf.printf "\nsynthesized %d sentences\n\n" (List.length first);
    List.iteri
      (fun i (d : Genie_templates.Derivation.t) ->
        match d.Genie_templates.Derivation.value with
        | Genie_templates.Derivation.V_frag (Ast.F_program p) ->
            if i < n then
              Printf.printf "%s\n  %s\n"
                (String.concat " " d.Genie_templates.Derivation.tokens)
                (Printer.program_to_string p)
        | _ -> ())
      first
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Synthesize (sentence, ThingTalk) training pairs, optionally sharded \
          over worker domains with deterministic merging")
    Term.(const run $ count $ target $ depth $ seed $ workers $ faults $ trace
          $ digest_dir $ spill_dir $ spill_threshold $ expand)

(* --- paraphrase ---------------------------------------------------------------- *)

let paraphrase_cmd =
  let sentence =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let program = Arg.(required & pos 1 (some string) None & info [] ~docv:"PROGRAM") in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of paraphrases") in
  let run sentence program n =
    let p = Parser.parse_program program in
    let toks = Genie_util.Tok.tokenize sentence in
    let rng = Genie_util.Rng.create 42 in
    for _ = 1 to n do
      let out = Genie_crowd.Worker.paraphrase (Genie_util.Rng.split rng) toks p in
      let ok = Genie_crowd.Pipeline.valid_paraphrase ~original:toks ~program:p out in
      Printf.printf "%s %s\n" (if ok then "[ok]     " else "[discard]") (String.concat " " out)
    done
  in
  Cmd.v
    (Cmd.info "paraphrase" ~doc:"Simulate crowdsourced paraphrasing of a sentence")
    Term.(const run $ sentence $ program $ n)

(* --- exec ------------------------------------------------------------------------ *)

let exec_cmd =
  let program = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let ticks = Arg.(value & opt int 7 & info [ "ticks" ] ~doc:"Virtual days to simulate") in
  let run program ticks =
    let lib, _, _ = setup () in
    let p = Parser.parse_program program in
    (match Typecheck.check_program lib p with
    | Ok () -> ()
    | Error e -> failwith ("type error: " ^ e));
    let canonical = Canonical.normalize lib p in
    Printf.printf "canonical: %s\n" (Printer.program_to_string canonical);
    let env = Genie_runtime.Exec.create lib in
    let notifications, effects = Genie_runtime.Exec.run ~ticks env canonical in
    Printf.printf "after %d virtual days: %d notifications, %d side effects\n" ticks
      (List.length notifications) (List.length effects);
    List.iteri
      (fun i record ->
        if i < 10 then
          Printf.printf "  notify { %s }\n"
            (String.concat "; "
               (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) record)))
      notifications;
    List.iter
      (fun (fn, args) ->
        Printf.printf "  do %s(%s)\n" (Ast.Fn.to_string fn)
          (String.concat ", " (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) args)))
      effects
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Type-check, canonicalize and run a ThingTalk program")
    Term.(const run $ program $ ticks)

(* --- compile --------------------------------------------------------------------- *)

let compile_cmd =
  let file =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"ThingTalk source file; omit (or pass \"-\") to read stdin")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Also execute the program on both the compiled path and \
                   the tree-walking interpreter and compare the results \
                   byte for byte (exit 3 on divergence)")
  in
  let ticks =
    Arg.(value & opt int 7 & info [ "ticks" ] ~doc:"Virtual days to simulate under --check")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Runtime RNG seed under --check")
  in
  let run file check ticks seed =
    let lib, _, _ = setup () in
    let source =
      match file with
      | None | Some "-" -> In_channel.input_all stdin
      | Some f -> In_channel.with_open_text f In_channel.input_all
    in
    let p = Parser.parse_program (String.trim source) in
    let c =
      try Genie_runtime.Compile.compile lib p
      with Genie_runtime.Exec.Runtime_error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    in
    print_string (Genie_runtime.Compile.listing c);
    Printf.printf "digest: %s\n" (Genie_runtime.Compile.digest c);
    if check then begin
      let render (notifications, effects) =
        let record r =
          String.concat "; "
            (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) r)
        in
        String.concat ""
          (List.map (fun r -> Printf.sprintf "notify { %s }\n" (record r)) notifications
          @ List.map
              (fun (fn, args) ->
                Printf.sprintf "do %s(%s)\n" (Ast.Fn.to_string fn) (record args))
              effects)
      in
      let outcome exec =
        try render (exec ()) with
        | Genie_runtime.Exec.Runtime_error e -> "runtime error: " ^ e ^ "\n"
      in
      let interpreted =
        outcome (fun () ->
            Genie_runtime.Exec.run ~ticks (Genie_runtime.Exec.create ~seed lib) p)
      in
      let compiled =
        outcome (fun () ->
            Genie_runtime.Compile.run ~ticks (Genie_runtime.Exec.create ~seed lib) c)
      in
      if compiled = interpreted then
        Printf.printf "check: compiled = interpreted over %d ticks (seed %d)\n%s" ticks
          seed compiled
      else begin
        Printf.eprintf
          "check FAILED: compiled and interpreted outputs diverge\n\
           --- interpreted ---\n%s--- compiled ---\n%s"
          interpreted compiled;
        exit 3
      end
    end
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a ThingTalk program to flat bytecode and print the \
          listing and its digest; --check also proves compiled execution \
          matches the interpreter")
    Term.(const run $ file $ check $ ticks $ seed)

(* --- parse (train a parser, then translate sentences) ------------------------------ *)

let parse_cmd =
  let sentences =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SENTENCE")
  in
  let scale =
    Arg.(value & opt float 0.5 & info [ "scale" ] ~doc:"Pipeline scale (training size)")
  in
  let execute = Arg.(value & flag & info [ "exec" ] ~doc:"Also run the parsed program") in
  let run sentences scale execute =
    let lib, prims, rules = setup () in
    Printf.printf "training the semantic parser (scale %.2f)...\n%!" scale;
    let cfg = Genie_core.Config.(scaled scale default) in
    let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
    List.iter
      (fun sentence ->
        let toks = Genie_util.Tok.tokenize sentence in
        match Genie_core.Pipeline.predictor a toks with
        | None -> Printf.printf "%s\n  -> <no parse>\n" sentence
        | Some p ->
            Printf.printf "%s\n  -> %s\n" sentence (Printer.program_to_string p);
            if execute then begin
              let env = Genie_runtime.Exec.create lib in
              let notifications, effects = Genie_runtime.Exec.run ~ticks:3 env p in
              Printf.printf "  (%d notifications, %d side effects)\n"
                (List.length notifications) (List.length effects)
            end)
      sentences
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Train a parser with the Genie pipeline and translate sentences")
    Term.(const run $ sentences $ scale $ execute)

(* --- evaluate -------------------------------------------------------------------- *)

let eval_cmd =
  let scale = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Pipeline scale") in
  let workers =
    Arg.(value & opt string "0"
         & info [ "workers" ]
             ~doc:"Comma-separated worker counts for the sharded evaluator \
                   (0 = sequential). The accuracy tables must be bitwise \
                   identical across all of them (exit 3 otherwise).")
  in
  let run scale workers_csv =
    let lib, prims, rules = setup () in
    let cfg = Genie_core.Config.(scaled scale default) in
    let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
    let sets =
      Genie_core.Experiments.build_eval_sets ~cfg lib ~prims ~rules
        ~synth_pool:a.Genie_core.Pipeline.synthesized
    in
    let worker_counts =
      match
        List.filter_map int_of_string_opt
          (Genie_util.Tok.split_on_string ~sep:"," workers_csv)
      with
      | [] -> [ 0 ]
      | ws -> ws
    in
    let predict_batch sents =
      List.map
        (fun (p : Genie_parser_model.Aligner.prediction) ->
          p.Genie_parser_model.Aligner.program)
        (Genie_parser_model.Aligner.predict_batch a.Genie_core.Pipeline.model
           sents)
    in
    let strip = List.map Genie_dataset.Example.strip_quotes in
    let show name examples =
      (* one sharded evaluation per worker count; bitwise-equal or exit 3 *)
      let runs =
        List.map
          (fun w ->
            let m =
              Genie_parser_model.Eval.evaluate_sharded ~workers:w a.Genie_core.Pipeline.lib
                predict_batch examples
            in
            (w, m, Genie_parser_model.Eval.digest m))
          worker_counts
      in
      (match runs with
      | (_, _, d0) :: rest ->
          List.iter
            (fun (w, _, d) ->
              if d <> d0 then begin
                Printf.eprintf
                  "%s metrics at workers=%d diverge: determinism violation\n"
                  name w;
                exit 3
              end)
            rest
      | [] -> ());
      let _, m, d = List.hd runs in
      Format.printf "%-12s %a digest=%s@." name
        Genie_parser_model.Eval.pp_metrics m d
    in
    show "paraphrase" a.Genie_core.Pipeline.paraphrase_test;
    show "validation" (strip sets.Genie_core.Experiments.validation);
    show "cheatsheet" (strip sets.Genie_core.Experiments.cheatsheet_test);
    show "ifttt" (strip sets.Genie_core.Experiments.ifttt_test)
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:
         "Run the full pipeline and report accuracy per test set (sharded \
          evaluation, worker-count-invariant)")
    Term.(const run $ scale $ workers)

(* --- train ------------------------------------------------------------------------ *)

(* Mini-batched, deterministically data-parallel seq2seq training: synthesize
   a small corpus, train the MQAN-lite parser once per requested worker
   count, and require the trained weights to be byte-identical across all of
   them (exit 3 otherwise). The weight digest covers every parameter's exact
   float bit pattern, so any nondeterminism in the gradient path shows up. *)
let train_cmd =
  let target =
    Arg.(value & opt int 12 & info [ "target" ] ~doc:"Target derivations per rule")
  in
  let depth = Arg.(value & opt int 2 & info [ "depth" ] ~doc:"Maximum derivation depth") in
  let pairs =
    Arg.(value & opt int 120 & info [ "pairs" ] ~doc:"Training pairs to keep")
  in
  let epochs = Arg.(value & opt int 3 & info [ "epochs" ] ~doc:"Training epochs") in
  let lr = Arg.(value & opt float 5e-3 & info [ "lr" ] ~doc:"Learning rate") in
  let batch =
    Arg.(value & opt int 4 & info [ "batch" ] ~doc:"Examples per optimizer step")
  in
  let micro =
    Arg.(value & opt int 2
         & info [ "micro" ]
             ~doc:"Examples per gradient micro-shard (shards fan out over \
                   workers and reduce in a fixed tree)")
  in
  let workers =
    Arg.(value & opt string "0"
         & info [ "workers" ]
             ~doc:"Comma-separated worker counts (0 = sequential). Trained \
                   weights must be byte-identical across all of them (exit 3 \
                   otherwise).")
  in
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Random seed") in
  let digest_dir =
    Arg.(value & opt string ""
         & info [ "digest-dir" ]
             ~doc:"Write the run's weight digest (the golden format under \
                   test/golden/train.digest) to DIR/train.digest. After \
                   --resume, an existing DIR/train.digest is compared \
                   instead (exit 3 on mismatch).")
  in
  let ckpt =
    Arg.(value & opt string ""
         & info [ "ckpt" ] ~docv:"PATH"
             ~doc:"Write checkpoints to this file (atomically, in place); \
                   a completed run always leaves its terminal checkpoint \
                   here.")
  in
  let ckpt_every =
    Arg.(value & opt int 0
         & info [ "ckpt-every" ] ~docv:"STEPS"
             ~doc:"Checkpoint every N optimizer steps (0 = only at \
                   completion / --stop-after)")
  in
  let ckpt_keep =
    Arg.(value & opt int 0
         & info [ "ckpt-keep" ] ~docv:"K"
             ~doc:"Rotate checkpoints: alongside --ckpt's stable file, keep \
                   the last K step-stamped copies (PATH.stepNNNNNNNN) and \
                   prune older ones. 0 disables rotation (the stable file \
                   is still overwritten in place).")
  in
  let stop_after =
    Arg.(value & opt int 0
         & info [ "stop-after" ] ~docv:"STEPS"
             ~doc:"Simulated kill: checkpoint and stop after N optimizer \
                   steps (0 = run to completion). Implies --ckpt.")
  in
  let resume =
    Arg.(value & opt string ""
         & info [ "resume" ] ~docv:"PATH"
             ~doc:"Resume from a checkpoint. The run's data recipe \
                   (target/depth/pairs/seed) and hyperparameters are taken \
                   from the checkpoint's provenance, overriding the flags.")
  in
  let corpus =
    Arg.(value & opt string ""
         & info [ "corpus" ] ~docv:"FILE"
             ~doc:"Train from a corpus shard written by 'genie synthesize \
                   --spill-dir' instead of synthesizing: the first --pairs \
                   records are streamed off disk through the bounded-readahead \
                   iterator (the rest of the file is never materialized).")
  in
  let run target depth pairs epochs lr batch micro workers_csv seed digest_dir
      ckpt ckpt_every ckpt_keep stop_after resume corpus =
    let resumed =
      if resume = "" then None
      else
        match Genie_checkpoint.Checkpoint.load resume with
        | Error e ->
            Printf.eprintf "cannot resume from %s: %s\n" resume e;
            exit 2
        | Ok ck -> Some ck
    in
    (* A resumed run must rebuild the exact data stream of the original, so
       the provenance recipe wins over the command line. *)
    let prov_int ck key fallback =
      match List.assoc_opt key ck.Genie_checkpoint.Checkpoint.provenance with
      | Some v -> ( match int_of_string_opt v with Some i -> i | None -> fallback)
      | None -> fallback
    in
    let prov_float ck key fallback =
      match List.assoc_opt key ck.Genie_checkpoint.Checkpoint.provenance with
      | Some v -> ( match float_of_string_opt v with Some f -> f | None -> fallback)
      | None -> fallback
    in
    let target, depth, pairs, epochs, lr, batch, micro, seed =
      match resumed with
      | None -> (target, depth, pairs, epochs, lr, batch, micro, seed)
      | Some ck ->
          Printf.printf "resuming from %s (recipe from its provenance)\n" resume;
          ( prov_int ck "target" target,
            prov_int ck "depth" depth,
            prov_int ck "pairs" pairs,
            prov_int ck "epochs" epochs,
            prov_float ck "lr" lr,
            prov_int ck "batch" batch,
            prov_int ck "micro" micro,
            prov_int ck "seed" seed )
    in
    let ckpt = if ckpt = "" && stop_after > 0 then "genie.ckpt" else ckpt in
    let lib, prims, rules = setup () in
    let to_pair (toks, p) =
      let toks = List.filter (fun t -> t <> "\"") toks in
      (toks, Nn_syntax.to_tokens lib (Canonical.normalize lib p))
    in
    let train_pairs =
      if corpus <> "" then begin
        (* iterator-fed: stream the first [pairs] records off the shard
           through the bounded-readahead reader; the tail is never decoded *)
        match Genie_dataset.Reader.open_file corpus with
        | Error e ->
            Printf.eprintf "cannot open corpus %s: %s\n" corpus e;
            exit 2
        | Ok r ->
            let rec take acc k =
              if k = 0 then List.rev acc
              else
                match Genie_dataset.Reader.next r with
                | Ok (Some rc) ->
                    let e = rc.Genie_dataset.Codec.example in
                    take
                      (to_pair
                         ( e.Genie_dataset.Example.tokens,
                           e.Genie_dataset.Example.program )
                      :: acc)
                      (k - 1)
                | Ok None -> List.rev acc
                | Error e ->
                    Printf.eprintf "corpus read failed: %s\n" e;
                    exit 2
            in
            let ps = take [] pairs in
            Genie_dataset.Reader.close r;
            Printf.printf "streamed %d training pairs from %s\n"
              (List.length ps) corpus;
            ps
      end
      else begin
        let g =
          Genie_templates.Grammar.create lib ~prims ~rules
            ~rng:(Genie_util.Rng.create seed) ()
        in
        let data =
          Genie_synthesis.Engine.synthesize g
            { Genie_synthesis.Engine.default_config with
              seed;
              target_per_rule = target;
              max_depth = depth }
        in
        List.filteri (fun i _ -> i < pairs) (List.map to_pair data)
      end
    in
    let src_vocab = Genie_nn.Vocab.of_tokens (List.concat_map fst train_pairs) in
    let tgt_vocab = Genie_nn.Vocab.of_tokens (List.concat_map snd train_pairs) in
    let n = List.length train_pairs in
    Printf.printf
      "training on %d pairs (src vocab %d, tgt vocab %d), %d epochs, batch %d, \
       micro %d\n"
      n
      (Genie_nn.Vocab.size src_vocab)
      (Genie_nn.Vocab.size tgt_vocab)
      epochs batch micro;
    Printf.printf "%d core(s) available to the runtime\n\n"
      (Domain.recommended_domain_count ());
    let worker_counts =
      match
        List.filter_map int_of_string_opt
          (Genie_util.Tok.split_on_string ~sep:"," workers_csv)
      with
      | [] -> [ 0 ]
      | ws -> ws
    in
    let provenance =
      [ ("target", string_of_int target);
        ("depth", string_of_int depth);
        ("pairs", string_of_int pairs);
        ("epochs", string_of_int epochs);
        ("lr", string_of_float lr);
        ("batch", string_of_int batch);
        ("micro", string_of_int micro);
        ("seed", string_of_int seed);
        ("model_kind", "seq2seq") ]
    in
    let stopped = ref false in
    let runs =
      List.map
        (fun w ->
          let model, resume_snapshot =
            match resumed with
            | None ->
                ( Genie_nn.Seq2seq.create
                    ~cfg:
                      { Genie_nn.Seq2seq.default_config with
                        Genie_nn.Seq2seq.seed }
                    ~src_vocab ~tgt_vocab (),
                  None )
            | Some ck -> (
                (* every worker-count run restores afresh from the same
                   file, so all start from identical bits *)
                match Genie_checkpoint.Checkpoint.restore ck with
                | Error e ->
                    Printf.eprintf "cannot restore %s: %s\n" resume e;
                    exit 2
                | Ok m -> (m, Some ck.Genie_checkpoint.Checkpoint.snapshot))
          in
          let checkpoint =
            if ckpt = "" then None
            else if ckpt_keep > 0 then
              Some
                (fun snap ->
                  ignore
                    (Genie_checkpoint.Checkpoint.save_rotating ~provenance
                       ~snapshot:snap ~path:ckpt ~keep:ckpt_keep model))
            else
              Some
                (fun snap ->
                  Genie_checkpoint.Checkpoint.save_model ~provenance
                    ~snapshot:snap ~path:ckpt model)
          in
          let last_loss = ref nan in
          let t0 = Unix.gettimeofday () in
          Genie_nn.Seq2seq.train ~epochs ~lr ~batch ~micro ~workers:w
            ~progress:(fun r -> last_loss := r.Genie_nn.Seq2seq.mean_loss)
            ?resume:resume_snapshot ~checkpoint_every:ckpt_every ?checkpoint
            ?stop_after:(if stop_after > 0 then Some stop_after else None)
            model train_pairs;
          if stop_after > 0 then stopped := true;
          let dt = Unix.gettimeofday () -. t0 in
          let digest = Genie_nn.Seq2seq.weight_digest model in
          Printf.printf
            "workers=%-3s %6.2fs %8.1f ex/s  final loss %.4f  digest=%s\n%!"
            (if w <= 1 then "seq" else string_of_int w)
            dt
            (float_of_int (n * epochs) /. Float.max 1e-9 dt)
            !last_loss digest;
          (w, digest))
        worker_counts
    in
    if !stopped then
      Printf.printf "stopped after %d optimizer steps; checkpoint at %s\n"
        stop_after ckpt;
    (match runs with
    | (w0, d0) :: rest ->
        List.iter
          (fun (w, d) ->
            if d <> d0 then begin
              Printf.eprintf
                "weight digest at workers=%d differs from workers=%d: \
                 determinism violation\n"
                w w0;
              exit 3
            end)
          rest
    | [] -> ());
    if digest_dir <> "" && not !stopped then begin
      (try Unix.mkdir digest_dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let _, d0 = List.hd runs in
      let line =
        Printf.sprintf "seed=%d epochs=%d batch=%d micro=%d pairs=%d digest=%s"
          seed epochs batch micro n d0
      in
      let path = Filename.concat digest_dir "train.digest" in
      if resumed <> None && Sys.file_exists path then begin
        (* the golden was written by an uninterrupted run: a resumed run
           landing anywhere else is a checkpoint/resume determinism bug *)
        let ic = open_in path in
        let expected = try input_line ic with End_of_file -> "" in
        close_in ic;
        if String.trim expected <> line then begin
          Printf.eprintf
            "resumed run diverged from %s:\n  expected %s\n  got      %s\n"
            path (String.trim expected) line;
          exit 3
        end;
        Printf.printf "resumed run matches golden digest in %s\n" path
      end
      else begin
        let oc = open_out path in
        Printf.fprintf oc "%s\n" line;
        close_out oc;
        Printf.printf "weight digest written to %s/train.digest\n" digest_dir
      end
    end
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Train the MQAN-lite parser on synthesized pairs with mini-batched, \
          deterministically data-parallel gradients")
    Term.(
      const run $ target $ depth $ pairs $ epochs $ lr $ batch $ micro $ workers
      $ seed $ digest_dir $ ckpt $ ckpt_every $ ckpt_keep $ stop_after $ resume
      $ corpus)

(* --- serve-bench ----------------------------------------------------------------- *)

(* Online-serving benchmark: train a parser, then replay synthetic Zipfian
   assistant traffic through the Serve subsystem at several worker counts. *)
let serve_bench_cmd =
  let scale =
    Arg.(value & opt float 0.5 & info [ "scale" ] ~doc:"Pipeline scale (training size)")
  in
  let requests =
    Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"Requests to replay")
  in
  let workers =
    Arg.(value & opt string "0,2,4"
         & info [ "workers" ] ~doc:"Comma-separated worker counts (0 = sequential)")
  in
  let cache =
    Arg.(value & opt int 4096 & info [ "cache" ] ~doc:"Parse-cache capacity per worker")
  in
  let zipf =
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~doc:"Zipf exponent of the traffic")
  in
  let execute =
    Arg.(value & flag & info [ "exec" ] ~doc:"Also execute each parsed program")
  in
  let compiled =
    Arg.(value & opt bool true
         & info [ "compiled" ]
             ~doc:"Execute through the bytecode compiler and compiled-program \
                   cache (default); --compiled=false forces the tree-walking \
                   interpreter")
  in
  let seed = Arg.(value & opt int 23 & info [ "seed" ] ~doc:"Traffic random seed") in
  let show =
    Arg.(value & opt int 0 & info [ "show" ] ~doc:"Print the first N responses")
  in
  let faults =
    Arg.(value & opt string ""
         & info [ "faults" ]
             ~doc:"Seeded fault schedule, e.g. \
                   'seed=7,crash=0.05,latency=0.2,latency_ms=5,drop=0.02,sleep=true'. \
                   Empty means no injected faults.")
  in
  let deadline =
    Arg.(value & opt float 0.0
         & info [ "deadline-ms" ]
             ~doc:"Per-request deadline in ms (0 = no deadline)")
  in
  let admission =
    Arg.(value & opt int 0
         & info [ "admission" ]
             ~doc:"Per-worker admission budget per batch (0 = unbounded); \
                   overflow is degraded to cache-only answers or shed")
  in
  let retries =
    Arg.(value & opt int 2 & info [ "retries" ] ~doc:"Max retries per request")
  in
  let trace =
    Arg.(value & opt string ""
         & info [ "trace" ]
             ~doc:"Write the first configuration's span stream to this JSONL \
                   file, plus per-configuration structural trace digests to \
                   FILE.digest. Without faults, digests must agree across \
                   worker counts (exit 3 otherwise).")
  in
  let run scale requests workers_csv cache zipf execute compiled seed show
      faults deadline admission retries trace =
    let lib, prims, rules = setup () in
    Printf.printf "training the semantic parser (scale %.2f)...\n%!" scale;
    let cfg = Genie_core.Config.(scaled scale default) in
    let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
    let corpus =
      List.map
        (fun (toks, _) -> String.concat " " toks)
        (a.Genie_core.Pipeline.synthesized @ a.Genie_core.Pipeline.paraphrases)
    in
    let fault =
      if faults = "" then Genie_conc.Fault.none
      else
        match Genie_conc.Fault.of_string faults with
        | Ok f -> f
        | Error e ->
            Printf.eprintf "bad --faults spec: %s\n" e;
            exit 2
    in
    let deadline_ms = if deadline > 0.0 then Some deadline else None in
    let admission_capacity = if admission > 0 then Some admission else None in
    let reqs =
      Genie_serve.Traffic.generate ~s:zipf ~execute ?deadline_ms
        ~rng:(Genie_util.Rng.create seed) ~utterances:corpus requests
    in
    let distinct =
      List.length
        (List.sort_uniq compare
           (List.map
              (fun (r : Genie_serve.Request.t) -> r.Genie_serve.Request.utterance)
              reqs))
    in
    Printf.printf "replaying %d requests over %d distinct utterances (zipf s=%.2f)\n"
      requests distinct zipf;
    if Genie_conc.Fault.active fault then
      Printf.printf "fault schedule: %s\n" (Genie_conc.Fault.to_string fault);
    Printf.printf "%d core(s) available to the runtime\n\n"
      (Domain.recommended_domain_count ());
    let open Genie_serve.Server in
    Printf.printf "%-10s %10s %10s %10s %10s %10s | %6s %6s %6s %6s %6s\n"
      "workers" "req/s" "hit rate" "p50 ms" "p95 ms" "p99 ms" "ok" "t/o" "shed"
      "retry" "degr";
    let worker_counts =
      List.filter_map int_of_string_opt (Genie_util.Tok.split_on_string ~sep:"," workers_csv)
    in
    let traced = ref [] in
    List.iter
      (fun w ->
        let tracer =
          if trace = "" then Genie_observe.Tracer.disabled
          else
            Genie_observe.Tracer.create ~seed
              ~capacity:(max 4096 (requests * 10))
              ~slots:(max 1 w + 1) ()
        in
        let server =
          of_artifacts ~workers:w ~cache_capacity:cache ~fault
            ?admission_capacity ~max_retries:retries ~tracer ~compiled a
        in
        let responses = run_batch server reqs in
        let s = stats server in
        shutdown server;
        Printf.printf
          "%-10s %10.0f %9.1f%% %10.2f %10.2f %10.2f | %6d %6d %6d %6d %6d\n%!"
          (if w <= 1 then "seq" else string_of_int w)
          s.throughput_rps (100. *. s.hit_rate) s.p50_ms s.p95_ms s.p99_ms s.ok
          s.timeouts s.shed s.retries s.degraded;
        List.iteri
          (fun i r -> if i < show then print_endline ("  " ^ Genie_serve.Response.summary r))
          responses;
        if trace <> "" then
          traced := (w, Genie_observe.Tracer.spans tracer) :: !traced)
      worker_counts;
    if trace <> "" then begin
      let traced = List.rev !traced in
      (* Fault-free traces must be structurally identical across worker
         counts; under faults, retry interleaving may legitimately move
         cache hits around, so digests are reported but not enforced. *)
      let strict = not (Genie_conc.Fault.active fault) in
      let digests =
        List.map
          (fun (w, spans) ->
            (w, List.length spans, Genie_observe.Export.digest ~strict spans))
          traced
      in
      (match traced with
      | (_, spans) :: _ -> Genie_observe.Export.write_jsonl trace spans
      | [] -> ());
      let oc = open_out (trace ^ ".digest") in
      List.iter
        (fun (w, n, d) ->
          Printf.fprintf oc "workers=%s spans=%d strict=%b digest=%s\n"
            (if w <= 1 then "seq" else string_of_int w)
            n strict d)
        digests;
      close_out oc;
      Printf.printf "\ntrace: %d spans -> %s (digests in %s.digest)\n"
        (match traced with (_, spans) :: _ -> List.length spans | [] -> 0)
        trace trace;
      if strict then begin
        match digests with
        | (_, _, d0) :: rest when List.exists (fun (_, _, d) -> d <> d0) rest ->
            prerr_endline
              "trace digests differ across worker counts on a fault-free run";
            exit 3
        | _ -> ()
      end
    end
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Benchmark the concurrent serving layer on synthetic assistant \
          traffic, optionally under a seeded fault schedule")
    Term.(
      const run $ scale $ requests $ workers $ cache $ zipf $ execute
      $ compiled $ seed $ show $ faults $ deadline $ admission $ retries
      $ trace)

(* --- serve / loadgen (network serving) -------------------------------------------- *)

(* Both ends of the TCP serving path train the same deterministic pipeline:
   the daemon to get a model to serve, the load generator to know the
   utterance corpus (and, under --selfcheck, the exact responses the server
   must produce). Equal --scale on both sides means equal corpus. *)
let trained_corpus scale =
  let lib, prims, rules = setup () in
  Printf.printf "training the semantic parser (scale %.2f)...\n%!" scale;
  let cfg = Genie_core.Config.(scaled scale default) in
  let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
  let corpus =
    List.map
      (fun (toks, _) -> String.concat " " toks)
      (a.Genie_core.Pipeline.synthesized @ a.Genie_core.Pipeline.paraphrases)
  in
  (a, corpus)

let parse_addr ~what s =
  match String.rindex_opt s ':' with
  | None -> (s, None)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 -> ((if host = "" then "127.0.0.1" else host), Some p)
      | _ ->
          Printf.eprintf "bad %s address %S (want HOST:PORT)\n" what s;
          exit 2)

let serve_cmd =
  let listen =
    Arg.(value & opt string "127.0.0.1:0"
         & info [ "listen" ] ~docv:"ADDR:PORT"
             ~doc:"Address to bind; port 0 picks an ephemeral port (printed \
                   on startup)")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~doc:"Serving pool size (0 = sequential)")
  in
  let batch_max =
    Arg.(value & opt int 64 & info [ "batch-max" ] ~doc:"Max requests per micro-batch")
  in
  let queue =
    Arg.(value & opt int 1024
         & info [ "queue" ] ~doc:"Admission queue capacity (beyond it, shed)")
  in
  let cache =
    Arg.(value & opt int 4096 & info [ "cache" ] ~doc:"Parse-cache capacity per worker")
  in
  let scale =
    Arg.(value & opt float 0.3 & info [ "scale" ] ~doc:"Pipeline scale (training size)")
  in
  let model_ckpt =
    Arg.(value & opt string ""
         & info [ "model-ckpt" ] ~docv:"PATH"
             ~doc:"Serve the neural seq2seq model from this checkpoint file \
                   (weights only — Adam moments are skipped) instead of \
                   training the statistical pipeline. SIGHUP / a Reload \
                   frame re-reads the same path and hot-swaps the model in \
                   between micro-batches; a corrupt or truncated file fails \
                   closed (counted in reload_failures, active model keeps \
                   serving).")
  in
  let run listen workers batch_max queue cache scale model_ckpt =
    let host, port = parse_addr ~what:"--listen" listen in
    let port = Option.value ~default:0 port in
    let lib, prims, rules = setup () in
    let server =
      if model_ckpt <> "" then begin
        Printf.printf "loading model checkpoint %s...\n%!" model_ckpt;
        match Genie_parser_model.Model.load_checkpoint ~lib model_ckpt with
        | Error e ->
            Printf.eprintf "cannot load %s: %s\n" model_ckpt e;
            exit 2
        | Ok model ->
            Printf.printf "model loaded: kind=%s digest=%s\n%!"
              (Genie_parser_model.Model.kind_to_string
                 model.Genie_parser_model.Model.kind)
              model.Genie_parser_model.Model.digest;
            Genie_serve.Server.create ~lib ~model ~workers
              ~cache_capacity:cache ()
      end
      else begin
        Printf.printf "training the semantic parser (scale %.2f)...\n%!" scale;
        let cfg = Genie_core.Config.(scaled scale default) in
        let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
        Genie_serve.Server.of_artifacts ~workers ~cache_capacity:cache a
      end
    in
    (* SIGHUP / Reload frame: re-read the configured checkpoint path and
       hot-swap the model in between micro-batches. Fail-closed: without
       --model-ckpt there is nothing to reload from, and a corrupt or
       truncated file keeps the active model serving — both count as
       reload_failures. *)
    let reload =
      if model_ckpt = "" then None
      else
        Some
          (fun ordinal ->
            Printf.printf "reload #%d: re-reading %s...\n%!" ordinal model_ckpt;
            match Genie_parser_model.Model.load_checkpoint ~lib model_ckpt with
            | Ok model -> Some model
            | Error e ->
                Printf.printf "reload #%d failed (keeping active model): %s\n%!"
                  ordinal e;
                None)
    in
    let on_swap ~old_digest ~new_digest =
      Printf.printf "model swapped: %s -> %s\n%!" old_digest new_digest
    in
    let d =
      Genie_net.Daemon.create ~server ?reload ~on_swap
        { Genie_net.Daemon.default_config with
          host;
          port;
          batch_max;
          queue_capacity = queue }
    in
    Genie_net.Daemon.install_signal_handlers d;
    Printf.printf
      "genie-serve listening on %s:%d (model=%s workers=%d batch-max=%d \
       queue=%d)\n%!"
      host (Genie_net.Daemon.port d)
      (Genie_serve.Server.model_kind server)
      workers batch_max queue;
    Genie_net.Daemon.run d;
    Genie_serve.Server.shutdown server;
    let s = Genie_net.Daemon.stats d in
    Printf.printf
      "drained cleanly: %d connections, %d requests, %d responses, %d \
       batches (max %d), shed %d, refused-draining %d, reloads %d\n"
      s.Genie_net.Daemon.connections s.Genie_net.Daemon.requests
      s.Genie_net.Daemon.responses s.Genie_net.Daemon.batches
      s.Genie_net.Daemon.max_batch s.Genie_net.Daemon.shed
      s.Genie_net.Daemon.refused_draining s.Genie_net.Daemon.reloads;
    print_endline
      (Genie_util.Json_lite.to_string (Genie_net.Daemon.stats_json d))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the network serving daemon: a TCP front end that micro-batches \
          framed requests into the concurrent serving pool; SIGTERM drains \
          gracefully, SIGHUP hot-swaps the model re-read from --model-ckpt")
    Term.(
      const run $ listen $ workers $ batch_max $ queue $ cache $ scale
      $ model_ckpt)

let loadgen_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR:PORT" ~doc:"Daemon address to connect to")
  in
  let users =
    Arg.(value & opt int 4
         & info [ "users" ] ~doc:"Concurrent persistent connections")
  in
  let requests = Arg.(value & opt int 200 & info [ "requests" ] ~doc:"Requests to send") in
  let rate =
    Arg.(value & opt float 0.0
         & info [ "rate" ]
             ~doc:"Open-loop arrival rate in requests/s (0 = maximum pressure)")
  in
  let zipf =
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~doc:"Zipf exponent of the traffic")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Traffic random seed") in
  let execute =
    Arg.(value & flag & info [ "exec" ] ~doc:"Ask the server to execute parsed programs")
  in
  let scale =
    Arg.(value & opt float 0.3
         & info [ "scale" ]
             ~doc:"Pipeline scale — must match the daemon's so both sides \
                   derive the same utterance corpus")
  in
  let out =
    Arg.(value & opt string "" & info [ "out" ] ~doc:"Write the report JSON to this file")
  in
  let selfcheck =
    Arg.(value & flag
         & info [ "selfcheck" ]
             ~doc:"Re-train the identical pipeline locally, replay the same \
                   request stream through an in-process server, and require \
                   the response digests to match (exit 3 otherwise)")
  in
  let drain =
    Arg.(value & flag
         & info [ "drain" ] ~doc:"Send a Drain frame when done (remote SIGTERM)")
  in
  let run connect users requests rate zipf seed execute scale out selfcheck drain
      =
    let host, port = parse_addr ~what:"--connect" connect in
    let port =
      match port with
      | Some p when p > 0 -> p
      | _ ->
          Printf.eprintf "--connect needs an explicit port\n";
          exit 2
    in
    let a, corpus = trained_corpus scale in
    let cfg =
      { Genie_net.Loadgen.default_config with
        host;
        port;
        users;
        requests;
        rate_rps = rate;
        zipf_s = zipf;
        seed;
        execute }
    in
    let r = Genie_net.Loadgen.run ~utterances:corpus cfg in
    let open Genie_net.Loadgen in
    Printf.printf
      "sent %d, received %d (ok %d, overloaded %d, other %d) in %.2fs = %.0f \
       req/s\n"
      r.sent r.received r.ok r.overloaded r.other r.elapsed_s r.rps;
    Printf.printf
      "latency ms: mean %.2f p50 %.2f p95 %.2f p99 %.2f (from scheduled \
       arrival)\n"
      r.latency_mean_ms r.latency_p50_ms r.latency_p95_ms r.latency_p99_ms;
    Printf.printf "queue wait ms: p50 %.2f p95 %.2f p99 %.2f\n"
      r.queue_wait_p50_ms r.queue_wait_p95_ms r.queue_wait_p99_ms;
    Printf.printf "response digest: %s\n" r.digest;
    if out <> "" then begin
      Genie_util.Json_lite.write_file out
        (match Genie_net.Loadgen.report_json r with
        | Genie_util.Json_lite.Obj fields ->
            Genie_util.Json_lite.Obj
              (fields
              @ [ ("server_stats_json", Genie_util.Json_lite.String r.server_stats) ])
        | j -> j);
      Printf.printf "report written to %s\n" out
    end;
    if drain then begin
      let c = Genie_net.Client.connect ~host ~port () in
      Genie_net.Client.drain c;
      Genie_net.Client.close c;
      Printf.printf "drain requested\n"
    end;
    if selfcheck then begin
      if r.overloaded > 0 || r.received < r.sent then begin
        Printf.eprintf
          "selfcheck impossible: %d responses were refused (overloaded) — \
           raise the daemon's --queue or lower the load\n"
          r.overloaded;
        exit 3
      end;
      let reqs = Genie_net.Loadgen.expected_requests ~utterances:corpus cfg in
      let server = Genie_serve.Server.of_artifacts ~workers:0 a in
      let resps = Genie_serve.Server.run_batch server reqs in
      Genie_serve.Server.shutdown server;
      let expected = Genie_net.Codec.digest_of_responses resps in
      if expected <> r.digest then begin
        Printf.eprintf
          "selfcheck FAILED: network digest %s, in-process digest %s\n"
          r.digest expected;
        exit 3
      end
      else Printf.printf "selfcheck ok: digests match (%s)\n" expected
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running genie-serve daemon with Zipfian open-loop traffic \
          over persistent connections, and optionally verify the response \
          stream against an in-process replay")
    Term.(
      const run $ connect $ users $ requests $ rate $ zipf $ seed $ execute
      $ scale $ out $ selfcheck $ drain)

(* --- ckpt ------------------------------------------------------------------------- *)

(* Checkpoint utilities. `inspect` renders the header, digests, snapshot and
   provenance of a checkpoint file without restoring the model; a truncated
   or corrupt file exits 2 (the library's strict never-half-loads decode). *)
let ckpt_cmd =
  let inspect_cmd =
    let file =
      Arg.(required & pos 0 (some string) None
           & info [] ~docv:"FILE" ~doc:"Checkpoint file to inspect")
    in
    let run file =
      match Genie_checkpoint.Checkpoint.inspect file with
      | Ok report -> print_string report
      | Error e ->
          Printf.eprintf "ckpt inspect: %s: %s\n" file e;
          exit 2
    in
    Cmd.v
      (Cmd.info "inspect"
         ~doc:
           "Print a checkpoint's version, digests, model config, snapshot \
            fields and provenance table (exit 2 on a truncated or corrupt \
            file)")
      Term.(const run $ file)
  in
  Cmd.group (Cmd.info "ckpt" ~doc:"Checkpoint utilities") [ inspect_cmd ]

(* --- profile ---------------------------------------------------------------------- *)

(* Where does a Genie run spend its time? Trace a seeded synthesis pass and a
   seeded serve batch, then print self-time flame summaries per stage. *)
let profile_cmd =
  let scale =
    Arg.(value & opt float 0.3 & info [ "scale" ] ~doc:"Pipeline scale (training size)")
  in
  let requests =
    Arg.(value & opt int 200 & info [ "requests" ] ~doc:"Requests in the serve phase")
  in
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~doc:"Worker count for the serve phase")
  in
  let seed = Arg.(value & opt int 23 & info [ "seed" ] ~doc:"Random seed") in
  let out =
    Arg.(value & opt string ""
         & info [ "out" ]
             ~doc:"Also write span streams to PREFIX.synth.jsonl and \
                   PREFIX.serve.jsonl")
  in
  let run scale requests workers seed out =
    let lib, prims, rules = setup () in
    let cfg = Genie_core.Config.(scaled scale default) in
    (* phase 1: template synthesis under its own tracer *)
    let g =
      Genie_templates.Grammar.create lib ~prims ~rules
        ~rng:(Genie_util.Rng.create seed) ()
    in
    let synth_tracer = Genie_observe.Tracer.create ~seed ~capacity:65536 () in
    let synth_cfg =
      { Genie_synthesis.Engine.default_config with
        seed;
        target_per_rule = cfg.Genie_core.Config.synth_target;
        max_depth = cfg.Genie_core.Config.synth_depth }
    in
    let data = Genie_synthesis.Engine.synthesize ~tracer:synth_tracer g synth_cfg in
    let synth_spans = Genie_observe.Tracer.spans synth_tracer in
    Printf.printf "== synthesis: %d pairs, %d spans\n"
      (List.length data) (List.length synth_spans);
    Genie_observe.Export.pp_flame Format.std_formatter
      (Genie_observe.Export.flame synth_spans);
    (* phase 2: train, then serve seeded traffic under a second tracer *)
    Printf.printf "\ntraining the semantic parser (scale %.2f)...\n%!" scale;
    let a = Genie_core.Pipeline.run ~cfg ~lib ~prims ~rules () in
    let corpus =
      List.map
        (fun (toks, _) -> String.concat " " toks)
        (a.Genie_core.Pipeline.synthesized @ a.Genie_core.Pipeline.paraphrases)
    in
    let reqs =
      Genie_serve.Traffic.generate ~s:1.1
        ~rng:(Genie_util.Rng.create seed) ~utterances:corpus requests
    in
    let serve_tracer =
      Genie_observe.Tracer.create ~seed
        ~capacity:(max 4096 (requests * 10))
        ~slots:(max 1 workers + 1) ()
    in
    let server =
      Genie_serve.Server.of_artifacts ~workers ~tracer:serve_tracer a
    in
    let _responses = Genie_serve.Server.run_batch server reqs in
    let snap = Genie_serve.Server.metrics_snapshot server in
    Genie_serve.Server.shutdown server;
    let serve_spans = Genie_observe.Tracer.spans serve_tracer in
    Printf.printf "\n== serving: %d requests, %d spans\n" requests
      (List.length serve_spans);
    Genie_observe.Export.pp_flame Format.std_formatter
      (Genie_observe.Export.flame serve_spans);
    Printf.printf "\nstage counters:";
    List.iter
      (fun (name, n) -> Printf.printf " %s=%d" name n)
      snap.Genie_serve.Metrics.stages;
    print_newline ();
    if out <> "" then begin
      Genie_observe.Export.write_jsonl (out ^ ".synth.jsonl") synth_spans;
      Genie_observe.Export.write_jsonl (out ^ ".serve.jsonl") serve_spans;
      Printf.printf "wrote %s.synth.jsonl and %s.serve.jsonl\n" out out
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Trace a seeded synthesis pass and serve batch, and print per-stage \
          self-time flame summaries")
    Term.(const run $ scale $ requests $ workers $ seed $ out)

let () =
  let doc = "Genie: generate natural language semantic parsers for virtual assistants" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "genie" ~doc)
          [ stats_cmd; cheatsheet_cmd; synthesize_cmd; paraphrase_cmd; exec_cmd;
            compile_cmd; parse_cmd; eval_cmd; train_cmd; ckpt_cmd;
            serve_bench_cmd; serve_cmd; loadgen_cmd; profile_cmd ]))
