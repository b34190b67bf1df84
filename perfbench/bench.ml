(* The Genie benchmark driver: one workload, one seed, one run. The
   workloads and metrics are documented in perfbench/README.md.

     bench.exe --workload serve-cold --seed 1 --seconds 20 --trace 0 \
       --daemon .bench_build/default/bin/genie_cli.exe --out perfbench/out

   A run starts the daemon as a child the way a user does, timing its
   start-up several times, and drives it over loopback: an untimed warm-up,
   an open-loop phase for latency and a closed-loop phase for capacity. It
   then drains the daemon, trains the same model in this process and replays
   the request stream as the correctness reference. --trace 1 adds spans
   around every layer call, probes of the aligner's decode steps, and the
   build's layers re-called one by one, and reports the per-layer metrics
   instead of the end-to-end ones. The last line of standard output is the
   result; a run that fails a check reports correct = false and no numbers. *)

open Genie_thingtalk
module Json = Genie_util.Json_lite
module Codec = Genie_net.Codec
module Client = Genie_net.Client
module Pipeline = Genie_core.Pipeline
module Config = Genie_core.Config
module Aligner = Genie_parser_model.Aligner
module Span = Genie_observe.Span

type spec = {
  name : string;
  execute : bool;
  rate : float;  (* open-loop arrivals per second, well below capacity *)
  window : int;  (* closed-loop requests kept outstanding *)
  hot_set : int;  (* commands cycled by Zipf(1.1); 0 = a command is never repeated *)
  warm : int;  (* cold: distinct untimed requests that settle the daemon's lazy memos *)
  grace : float;  (* seconds a phase waits for its stragglers *)
}

(* serve-hot keeps a micro-batch's worth (the daemon's batch_max, 64)
   outstanding; serve-cold keeps 8, since a 64-request batch of ~100 ms
   decodes would leave a few batches per phase and a coarse rate. *)
let specs =
  [ { name = "serve-cold"; execute = false; rate = 4.0; window = 8; hot_set = 0; warm = 8;
      grace = 30.0 };
    { name = "serve-hot"; execute = true; rate = 100.0; window = 64; hot_set = 32; warm = 0;
      grace = 10.0 } ]

let setups = 3  (* daemon start-ups per run; setup_s is their median *)
let builds = 3  (* Pipeline.run calls per run; build_s is their median *)
let open_share = 0.7  (* of --seconds; the closed loop gets the rest *)
let per_source = 150  (* commands drawn from each section 5.1 generator *)

(* The generator must keep to its schedule: a run whose sends were late by
   more than this at p99 is invalid, since its latencies would partly be
   the generator's. *)
let late_bound_ms = 25.0

let setup () =
  let lib = Genie_thingpedia.Thingpedia.core_library () in
  (lib, Genie_thingpedia.Thingpedia.core_templates (), Genie_templates.Rules_thingtalk.rules lib)

let cores_online () =
  try
    let ic = open_in "/sys/devices/system/cpu/online" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with Sys_error _ | End_of_file -> "unknown"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             metrics) ) ]

(* Requests carried by the daemon's micro-batches: size × count summed over
   its batch-size histogram. *)
let batched_requests stats =
  match Measure.member "batch_histogram" stats with
  | Json.List rows ->
      List.fold_left
        (fun acc row ->
          match row with
          | Json.List [ size; count ] -> acc +. (Measure.num size *. Measure.num count)
          | _ -> acc)
        0.0 rows
  | _ -> 0.0

let started = Measure.now ()
let log what = Printf.eprintf "[bench %6.1fs] %s\n%!" (Measure.now () -. started) what

(* serve-hot cycles the same commands at the same Zipf ranks on every seed;
   the seed draws the request sequence and the schedule phase. Execution
   cost differs tenfold between commands, so seed-drawn ranks would make
   capacity a property of whichever command ranked first, and 32 commands
   are too few for their accuracy to compare across seeds. *)
let hot_pool_seed = 0

let run spec ~seed ~seconds ~trace ~scale ~daemon ~out ~rev ~nproc =
  let lib, prims, rules = setup () in
  log "generating inputs";
  let hot = spec.hot_set > 0 in
  let items =
    Inputs.pool ~lib ~prims ~rules ~seed:(if hot then hot_pool_seed else seed) ~per_source
  in
  let rng = Genie_util.Rng.create (seed + 1) in
  let schedule = Inputs.schedule rng ~rate:spec.rate ~seconds:(open_share *. seconds) in
  let warm_items, next_item =
    if hot then begin
      let set = Array.sub items 0 spec.hot_set in
      let pick = Inputs.zipf rng ~s:1.1 ~n:spec.hot_set in
      (Array.to_list set, fun () -> set.(pick ()))
    end
    else begin
      let cursor = ref spec.warm in
      ( Array.to_list (Array.sub items 0 spec.warm),
        fun () ->
          if !cursor >= Array.length items then failwith "the cold command pool ran out";
          incr cursor;
          items.(!cursor - 1) )
    end
  in
  let ids = ref 0 in
  let mk item ~due =
    incr ids;
    Drive.record ~id:(!ids - 1) ~item ~execute:spec.execute ~due
  in
  (* 1. set-up, timed [setups] times; the last daemon serves the run *)
  log "starting the daemon";
  let daemons =
    List.init setups (fun i ->
        let d = Proc.spawn ~exe:daemon ~scale in
        if i < setups - 1 then ignore (Proc.stop d);
        d)
  in
  let d = List.nth daemons (setups - 1) in
  let setup_s = Measure.median (List.map (fun (d : Proc.t) -> d.Proc.setup_s) daemons) in
  let conns = Array.init (max 1 (min 2 nproc)) (fun _ -> Client.connect ~port:d.Proc.port ()) in
  (* 2. untimed warm-up: serve-hot sends every hot command once, so each
     timed request hits the parse cache *)
  log "warm-up";
  let warm = Array.of_list (List.map (fun it -> mk it ~due:(Measure.now ())) warm_items) in
  Drive.open_loop conns warm ~grace:120.0;
  let before = Drive.server_stats conns.(0) in
  (* 3. open loop at a fixed rate, on a schedule fixed before the phase *)
  log "open loop";
  let start = Measure.now () +. 0.01 in
  let opened = Array.map (fun off -> mk (next_item ()) ~due:(start +. off)) schedule in
  Drive.open_loop conns opened ~grace:spec.grace;
  (* 4. closed loop for capacity *)
  log "closed loop";
  let c_start, closed =
    Drive.closed_loop conns ~window:spec.window ~seconds:((1.0 -. open_share) *. seconds)
      ~grace:spec.grace (fun () -> mk (next_item ()) ~due:(Measure.now ()))
  in
  let after = Drive.server_stats conns.(0) in
  let rss_peak_mb = Measure.vm_hwm_mb (string_of_int d.Proc.pid) in
  Array.iter Client.close conns;
  let drained = Proc.stop d in
  (* 5. the same model, trained here; the replay of the stream *)
  log "training the reference model";
  let cfg = Config.scaled scale Config.default in
  (* only the last build's artifacts are kept, so memory holds one model *)
  let last = ref None in
  let build_times =
    List.init builds (fun _ ->
        last := None;
        let a, s = Measure.time (fun () -> Pipeline.run ~cfg ~lib ~prims ~rules ()) in
        last := Some a;
        s)
  in
  let a = Option.get !last and build_s = Measure.median build_times in
  let secs xs = String.concat " " (List.map (Printf.sprintf "%.2f") xs) in
  log
    (Printf.sprintf "set-ups %s s, builds %s s"
       (secs (List.map (fun (d : Proc.t) -> d.Proc.setup_s) daemons))
       (secs build_times));
  (* the re-calls run right after the builds, in the same heap state *)
  let build =
    if trace then begin
      log "build re-calls";
      Some (Build_trace.run ~cfg ~lib ~prims ~rules a)
    end
    else None
  in
  let model = Genie_parser_model.Model.of_aligner a.Pipeline.model in
  let opened = Array.to_list opened and closed = Array.to_list closed in
  let timed = opened @ closed in
  let all = Array.to_list warm @ timed in
  log "replay";
  let gc0 = Gc.quick_stat () in
  let rep = Replay.run ~trace ~lib ~model all in
  let gc1 = Gc.quick_stat () in
  (* 6. the correctness gate *)
  let failures = ref [] in
  let check ok msg = if not ok then failures := msg :: !failures in
  let digest = Measure.str (Measure.member "model_digest" after) in
  let replay_digest = Aligner.digest a.Pipeline.model in
  check (digest = replay_digest)
    (Printf.sprintf "daemon model digest %s, replay model digest %s" digest replay_digest);
  check drained "the daemon did not report a clean drain";
  let show = Option.value ~default:"(none)" in
  List.iter
    (fun (r : Drive.record) ->
      match r.Drive.response with
      | Some rs when rs.Codec.rs_status = "ok" || rs.Codec.rs_status = "no-parse" -> (
          let expected = Hashtbl.find rep.Replay.answers r.Drive.id in
          check (rs.Codec.rs_program = expected)
            (Printf.sprintf "request %d: the daemon served %s, the replay predicts %s" r.Drive.id
               (show rs.Codec.rs_program) (show expected));
          if rs.Codec.rs_status = "ok" then
            match Option.bind rs.Codec.rs_program Parser.parse_program_opt with
            | Some p ->
                check (Result.is_ok (Typecheck.check_program lib p))
                  (Printf.sprintf "request %d: the served program does not typecheck" r.Drive.id)
            | None ->
                check false
                  (Printf.sprintf "request %d: the served program does not parse: %s" r.Drive.id
                     (show rs.Codec.rs_program)))
      | _ -> ())
    all;
  let delta keys = Measure.num (Measure.path keys after) -. Measure.num (Measure.path keys before) in
  let hits = delta [ "server"; "cache_hits" ] and misses = delta [ "server"; "cache_misses" ] in
  if hot then check (misses = 0.0) "serve-hot: a timed request missed the parse cache"
  else check (hits = 0.0) "serve-cold: a timed request hit the parse cache";
  let late_ms = List.map (fun (r : Drive.record) -> (r.Drive.sent -. r.Drive.due) *. 1e3) opened in
  let late_p99 = Measure.percentile late_ms 99.0 in
  check (late_p99 <= late_bound_ms)
    (Printf.sprintf "invalid run: the generator fell behind its schedule (late p99 %.1f ms > %.0f ms)"
       late_p99 late_bound_ms);
  (* 7. metrics *)
  let attempted = List.length timed in
  let failed = List.length (List.filter (fun r -> not (Drive.ok r)) timed) in
  let served = Hashtbl.create 256 in
  List.iter
    (fun (r : Drive.record) ->
      Option.iter
        (fun rs ->
          Hashtbl.replace served r.Drive.item.Inputs.utterance
            (Option.bind rs.Codec.rs_program Parser.parse_program_opt))
        r.Drive.response)
    all;
  let examples =
    List.map
      (fun (it : Inputs.item) -> it.Inputs.example)
      (if hot then warm_items else List.map (fun (r : Drive.record) -> r.Drive.item) timed)
  in
  let exact_match =
    (Genie_parser_model.Eval.evaluate lib
       (fun toks -> Option.join (Hashtbl.find_opt served (String.concat " " toks)))
       examples)
      .Genie_parser_model.Eval.program_accuracy
  in
  let c_end =
    List.fold_left
      (fun m (r : Drive.record) -> if Drive.ok r then Float.max m r.Drive.received else m)
      c_start closed
  in
  let ok_closed = List.length (List.filter Drive.ok closed) in
  let latency = List.map Drive.latency_ms opened in
  let end_to_end =
    [ ("setup_s", "s", setup_s);
      ("latency_p50_ms", "ms", Measure.percentile latency 50.0);
      ("latency_p90_ms", "ms", Measure.percentile latency 90.0);
      ("rss_peak_mb", "MB", rss_peak_mb) ]
  in
  let per_layer () =
    let build = Option.get build in
    let rs (r : Drive.record) = Option.get r.Drive.response in
    let open_ok = List.filter Drive.ok opened in
    let wire f = List.map (fun r -> f (rs r) /. 1e6) open_ok in
    let queue_ms = wire (fun rs -> rs.Codec.rs_queue_ns) in
    let engine_ms = wire (fun rs -> rs.Codec.rs_total_ns) in
    let loop_ms =
      List.map
        (fun r -> Drive.latency_ms r -. (((rs r).Codec.rs_queue_ns +. (rs r).Codec.rs_total_ns) /. 1e6))
        open_ok
    in
    let in_set records =
      let t = Hashtbl.create 1024 in
      List.iter (fun (r : Drive.record) -> Hashtbl.replace t r.Drive.id ()) records;
      Hashtbl.mem t
    in
    let is_timed = in_set timed and is_closed = in_set closed in
    let selfs = Replay.self_times rep.Replay.spans in
    let spans_of ?(only = fun _ -> true) name =
      List.filter (fun ((s : Span.t), _) -> s.Span.name = name && only s.Span.request) selfs
    in
    let self ?only name scale = List.map (fun (_, v) -> v /. scale) (spans_of ?only name) in
    let dur name scale = List.map (fun ((s : Span.t), _) -> s.Span.dur_ns /. scale) (spans_of name) in
    let attr name key =
      List.filter_map
        (fun ((s : Span.t), _) -> Option.map float_of_string (List.assoc_opt key s.Span.attrs))
        (spans_of name)
    in
    let p50 xs = Measure.percentile xs 50.0 and p90 xs = Measure.percentile xs 90.0 in
    let probes = Replay.probe ~lib ~aligner:a.Pipeline.model rep.Replay.decoded in
    (* exec on the request path where the workload executes (serve-hot),
       else the probe's run of every decoded program *)
    let exec_us =
      match self ~only:is_timed "exec" 1e3 with [] -> probes.Replay.exec_us | xs -> xs
    in
    let scored = attr "decode.rank" "scored" and completed = attr "decode.slots" "completed" in
    let engine_layers = [ "tokenize"; "cache"; "print"; "exec" ] in
    let replay_engine_ns =
      Measure.sum
        (List.concat_map (fun name -> List.map (fun (_, v) -> v) (spans_of ~only:is_timed name))
           engine_layers)
    in
    let daemon_engine_ns =
      Measure.sum (List.map (fun r -> (rs r).Codec.rs_total_ns) (List.filter Drive.ok timed))
    in
    let busy_ns =
      Measure.sum
        (List.map (fun ((s : Span.t), _) -> s.Span.dur_ns) (spans_of ~only:is_closed "request"))
    in
    let stage_s = Measure.sum (List.map snd build.Build_trace.stages) in
    let stage name = List.assoc name build.Build_trace.stages in
    let batches = delta [ "batches" ] in
    let ms = Measure.mean in
    [ ("capacity_rps", "1/s", float_of_int ok_closed /. (c_end -. c_start));
      ("exact_match", "ratio", exact_match);
      ("gen.late_p99_ms", "ms", late_p99);
      ("failed_ratio", "ratio", float_of_int failed /. float_of_int (max 1 attempted));
      ("latency_p99_ms", "ms", Measure.percentile (List.map Drive.latency_ms opened) 99.0);
      ("net.queue_wait_p50_ms", "ms", p50 queue_ms);
      ("net.queue_wait_p90_ms", "ms", p90 queue_ms);
      ("net.loop_p50_ms", "ms", p50 loop_ms);
      ("net.batches", "count", batches);
      ("net.batch_size_mean", "count", (batched_requests after -. batched_requests before) /. batches);
      ("net.shed", "count", delta [ "shed" ]);
      ("net.protocol_errors", "count", delta [ "protocol_errors" ]);
      ("net.dropped_responses", "count", delta [ "dropped_responses" ]);
      ("codec.decode_us", "us", p50 (self ~only:is_timed "codec.decode" 1e3));
      ("codec.encode_us", "us", p50 (self ~only:is_timed "codec.encode" 1e3));
      ("serve.engine_p50_ms", "ms", p50 engine_ms);
      ("serve.engine_p90_ms", "ms", p90 engine_ms);
      ("serve.cache_hit_ratio", "ratio", hits /. Float.max 1.0 (hits +. misses));
      ("serve.cache_misses", "count", misses);
      ("serve.cache_lookup_us", "us", p50 (self ~only:is_timed "cache" 1e3));
      ("tokenize_us", "us", p50 (self ~only:is_timed "tokenize" 1e3));
      ("argument_id_us", "us", p50 probes.Replay.argument_id_us);
      ("aligner.predict_p50_ms", "ms", p50 (dur "decode" 1e6));
      ("aligner.predict_p90_ms", "ms", p90 (dur "decode" 1e6));
      ("decode.rank_ms", "ms", p50 (dur "decode.rank" 1e6));
      ("decode.beam_ms", "ms", p50 (dur "decode.beam" 1e6));
      ("decode.slots_ms", "ms", p50 (dur "decode.slots" 1e6));
      ("aligner.candidate_keys_ms", "ms", p50 probes.Replay.candidate_keys_ms);
      ("aligner.compose_candidates_ms", "ms", p50 probes.Replay.compose_candidates_ms);
      ("aligner.top_clauses_ms", "ms", p50 probes.Replay.top_clauses_ms);
      ("aligner.scored", "count", ms scored);
      ("aligner.composed", "count", ms probes.Replay.composed);
      ("aligner.completed", "count", ms completed);
      ("aligner.useful_ratio", "ratio", Measure.sum completed /. Measure.sum scored);
      ("aligner.train_s", "s", stage "aligner.train");
      ("aligner.train_examples", "count", float_of_int build.Build_trace.train_examples);
      ("printer_us", "us", p50 (self "print" 1e3));
      ("typecheck_us", "us", p50 probes.Replay.typecheck_us);
      ("exec_p50_us", "us", p50 exec_us);
      ("exec_p90_us", "us", p90 exec_us);
      ( "exec.notifications_mean", "count",
        ms (List.map (fun r -> float_of_int (rs r).Codec.rs_notifications) (List.filter Drive.ok timed)) );
      ( "exec.side_effects_mean", "count",
        ms (List.map (fun r -> float_of_int (rs r).Codec.rs_side_effects) (List.filter Drive.ok timed)) );
      ("synthesis.synthesize_s", "s", stage "synthesis.synthesize");
      ("synthesis.lm_s", "s", stage "synthesis.lm");
      ("synthesis.sentences", "count", float_of_int build.Build_trace.sentences);
      ("crowd.collect_s", "s", stage "crowd.collect");
      ("crowd.accept_ratio", "ratio", build.Build_trace.accept_ratio);
      ("augment.ppdb_s", "s", stage "augment.ppdb");
      ("augment.expand_s", "s", stage "augment.expand");
      ("augment.expanded_examples", "count", float_of_int build.Build_trace.expanded);
      ("build_s", "s", build_s);
      ("pipeline.unaccounted_s", "s", build_s -. stage_s);
      ("pipeline.coverage", "ratio", stage_s /. build_s);
      ("gc.minor_mwords", "Mword", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", "count", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace.engine_coverage", "ratio", replay_engine_ns /. daemon_engine_ns);
      ("trace.busy_coverage", "ratio", busy_ns /. 1e9 /. (c_end -. c_start)) ]
  in
  let metrics = if trace then per_layer () else end_to_end in
  Option.iter (fun b -> List.iter (fun f -> check false f) b.Build_trace.failures) build;
  List.iter
    (fun (name, _, v) -> check (Float.is_finite v) (Printf.sprintf "metric %s is not finite" name))
    metrics;
  (* 8. report: the context stamp, files under --out, then the result line *)
  let context =
    Json.Obj
      [ ("workload", Json.String spec.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("rev", Json.String rev);
        ("nproc", Json.Int nproc);
        ("cores_online", Json.String (cores_online ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("scale", Json.Float scale);
        ("daemon", Json.String d.Proc.banner);
        ("connections", Json.Int (Array.length conns));
        ("open_rate_rps", Json.Float spec.rate);
        ("closed_window", Json.Int spec.window);
        ("requests_open", Json.Int (List.length opened));
        ("requests_closed", Json.Int (List.length closed)) ]
  in
  let failures = List.rev !failures in
  let correct = failures = [] in
  List.iteri (fun i f -> if i < 10 then prerr_endline ("check failed: " ^ f)) failures;
  let result =
    result ~correct ~attempted ~failed (if correct then metrics else [])
  in
  mkdir_p out;
  let stem = Printf.sprintf "%s-seed%d-trace%d" spec.name seed (if trace then 1 else 0) in
  Json.write_file (Filename.concat out (stem ^ ".json"))
    (Json.Obj
       [ ("context", context);
         ("result", result);
         ("failures", Json.List (List.map (fun f -> Json.String f) failures)) ]);
  if trace then
    Genie_observe.Export.write_jsonl
      (Filename.concat out (stem ^ ".spans.jsonl"))
      (rep.Replay.spans @ (Option.get build).Build_trace.spans);
  print_endline (Json.to_string_compact (Json.Obj [ ("context", context) ]));
  print_endline (Json.to_string_compact result);
  correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let scale = ref 0.2 and daemon = ref "" and out = ref "perfbench/out" in
  let rev = ref "unknown" and nproc = ref 1 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve-cold or serve-hot");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (open plus closed loop)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--scale", Arg.Set_float scale, "F pipeline scale of the served model");
      ("--daemon", Arg.Set_string daemon, "PATH the genie CLI executable");
      ("--out", Arg.Set_string out, "DIR result files and spans");
      ("--rev", Arg.Set_string rev, "REV source revision for the context stamp");
      ("--nproc", Arg.Set_int nproc, "N usable cores; the generator opens at most 2") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH";
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline "bench: --workload must be serve-cold or serve-hot";
      exit 2
  | Some spec ->
      let ok =
        run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~scale:!scale ~daemon:!daemon
          ~out:!out ~rev:!rev ~nproc:!nproc
      in
      exit (if ok then 0 else 1)
