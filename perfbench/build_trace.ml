(* The build's layers re-called one at a time, each timed, with the
   arguments Genie_core.Pipeline.run passes them (default regime, no
   ablations). The re-calls must reproduce the untraced run's synthesized
   corpus and model digest. *)

open Genie_core
module Example = Genie_dataset.Example
module Rng = Genie_util.Rng
module Span = Genie_observe.Span
module Aligner = Genie_parser_model.Aligner

type t = {
  stages : (string * float) list;  (* layer, seconds, in pipeline order *)
  sentences : int;
  accept_ratio : float;
  expanded : int;
  train_examples : int;
  spans : Span.t list;
  failures : string list;
}

let run ~cfg ~lib ~prims ~rules (a : Pipeline.artifacts) =
  if cfg.Config.regime <> Config.Genie_full || cfg.Config.ablations <> [] then
    invalid_arg "Build_trace.run: only the default regime is re-called";
  let seed = cfg.Config.seed in
  let stages = ref [] and spans = ref [] in
  let stage name f =
    let t0 = Genie_observe.Tracer.now_ns () in
    let r, s = Measure.time f in
    stages := (name, s) :: !stages;
    spans :=
      Span.v ~seed:Replay.span_seed ~request:(-1) ~seq:(List.length !stages) ~start_ns:t0
        ~dur_ns:(s *. 1e9) name
      :: !spans;
    r
  in
  let grammar =
    stage "grammar" (fun () ->
        Genie_templates.Grammar.create lib ~prims ~rules ~rng:(Rng.create (seed + 10)) ())
  in
  let synth_cfg =
    { Genie_synthesis.Engine.default_config with
      Genie_synthesis.Engine.seed = seed + 20;
      target_per_rule = cfg.Config.synth_target;
      max_depth = cfg.Config.synth_depth }
  in
  let synthesized =
    stage "synthesis.synthesize" (fun () -> Genie_synthesis.Engine.synthesize grammar synth_cfg)
  in
  let lm_programs =
    stage "synthesis.lm" (fun () ->
        Genie_synthesis.Engine.synthesize_programs grammar
          { synth_cfg with
            Genie_synthesis.Engine.seed = seed + 30;
            target_per_rule = cfg.Config.lm_target })
  in
  let selection =
    { Genie_crowd.Pipeline.seed = seed + 40;
      compound_budget = cfg.Config.compound_paraphrase_budget;
      primitive_per_function = cfg.Config.primitive_per_function;
      easy_functions = Genie_thingpedia.Thingpedia.easy_functions;
      hard_functions = Genie_thingpedia.Thingpedia.hard_functions }
  in
  let crowd =
    stage "crowd.collect" (fun () ->
        Genie_crowd.Pipeline.collect ~seed:(seed + 50) ~num_workers:cfg.Config.num_workers
          (Genie_crowd.Pipeline.select selection synthesized))
  in
  let kept (_, p) = not (Hashtbl.mem a.Pipeline.held_out_combos (Pipeline.combo_key p)) in
  let examples source start pairs =
    List.mapi
      (fun i (tokens, program) -> Example.make ~id:(start + i) ~tokens ~program ~source ())
      pairs
  in
  let base =
    examples Example.Synthesized 0 (List.filter kept synthesized)
    @ examples Example.Paraphrase 500_000
        (List.filter kept crowd.Genie_crowd.Pipeline.accepted)
  in
  let aug_rng = Rng.create (seed + 70) in
  let with_ppdb =
    stage "augment.ppdb" (fun () ->
        List.map
          (fun (e : Example.t) ->
            match e.Example.source with
            | Example.Paraphrase ->
                let protected = Genie_crowd.Worker.protected_tokens e.Example.program in
                { e with
                  Example.tokens = Genie_augment.Ppdb.augment aug_rng ~protected e.Example.tokens }
            | _ -> e)
          base)
  in
  let expanded =
    stage "augment.expand" (fun () ->
        let gz = Genie_augment.Gazettes.create ~size:cfg.Config.gazette_size () in
        Genie_augment.Expand.expand_dataset ~scale:cfg.Config.expansion_scale lib gz aug_rng
          with_ppdb)
  in
  let train = List.map Example.strip_quotes expanded in
  let model =
    stage "aligner.train" (fun () ->
        Aligner.train
          ~cfg:{ (Config.aligner_config cfg) with Aligner.lm_programs }
          lib train)
  in
  let failures =
    (if synthesized = a.Pipeline.synthesized then []
     else [ "build re-call: Engine.synthesize did not reproduce the synthesized corpus" ])
    @
    if Aligner.digest model = Aligner.digest a.Pipeline.model then []
    else [ "build re-call: Aligner.train did not reproduce the model digest" ]
  in
  let collected = crowd.Genie_crowd.Pipeline.collected in
  { stages = List.rev !stages;
    sentences = List.length synthesized;
    accept_ratio =
      float_of_int (List.length crowd.Genie_crowd.Pipeline.accepted)
      /. float_of_int (max 1 collected);
    expanded = List.length expanded;
    train_examples = List.length train;
    spans = List.rev !spans;
    failures }
