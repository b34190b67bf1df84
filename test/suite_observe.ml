(* Tests for the observability layer: deterministic span identity, the
   lock-free ring tracer, the structural tree/digest oracles, probes, and
   end-to-end trace goldens over the serving and synthesis subsystems.

   Span ids and the merged span order are pure functions of (tracer seed,
   request id, attempt, stage), never of wall-clock time or worker index —
   so these tests assert *exact* span trees for seeded runs, and equality of
   trace digests between sequential and pooled servers.

   Regolding: run with OBS_DUMP=1 in the environment and the failing golden
   tests print the actual tree lines in paste-ready form. *)

open Genie_thingtalk
open Genie_serve
module Fault = Genie_conc.Fault
module Span = Genie_observe.Span
module Tracer = Genie_observe.Tracer
module Export = Genie_observe.Export
module Probe = Genie_observe.Probe

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

(* the same tiny training set the serve suite uses *)
let mini_dataset () =
  let mk sentence src =
    Genie_dataset.Example.make ~id:0 ~tokens:(Genie_util.Tok.tokenize sentence)
      ~program:(parse src) ~source:Genie_dataset.Example.Synthesized ()
  in
  List.concat
    (List.init 6 (fun i ->
         let name = List.nth [ "alice"; "bob"; "carol"; "dan"; "eve"; "mallory" ] i in
         [ mk
             (Printf.sprintf "tweet %s" name)
             (Printf.sprintf "now => @com.twitter.post(status = \"%s\");" name);
           mk
             (Printf.sprintf "show me emails from %s" name)
             (Printf.sprintf
                "now => (@com.gmail.inbox()) filter sender_name == \"%s\" => notify;" name);
           mk "get a cat picture" "now => @com.thecatapi.get() => notify;";
           mk "when i receive an email , get a cat picture"
             "monitor (@com.gmail.inbox()) => @com.thecatapi.get() => notify;" ]))

let model =
  lazy
    (Genie_parser_model.Model.of_aligner
       (Genie_parser_model.Aligner.train lib (mini_dataset ())))

(* eight distinct utterances: under these, every fault-class decision and
   every cache outcome is identical between serving paths, so even fault-run
   goldens compare strictly *)
let distinct_utterances =
  [ "tweet alice"; "tweet bob"; "show me emails from carol"; "get a cat picture";
    "when i receive an email , get a cat picture"; "tweet dan";
    "show me emails from eve"; "tweet mallory" ]

let new_tracer ?(seed = 42) ?(capacity = 4096) ~workers () =
  Tracer.create ~seed ~capacity ~slots:(max 1 workers + 1) ()

let serve ?fault ?admission_capacity ?degrade ?(max_retries = 2) ~workers
    ~tracer reqs =
  let model = Lazy.force model in
  let server =
    Server.create ~lib ~model ~workers ~queue_capacity:16 ?fault
      ?admission_capacity ?degrade ~max_retries ~retry_backoff_ms:0.01 ~tracer
      ()
  in
  let rs = Server.run_batch server reqs in
  let snap = Server.metrics_snapshot server in
  Server.shutdown server;
  (rs, snap)

let requests_of utterances = List.mapi (fun i u -> Request.make ~id:i u) utterances

(* everything deterministic about a response (mirrors suite_serve) *)
let response_digest (r : Response.t) =
  Printf.sprintf "#%d %s %s cache=%b degraded=%b attempts=%d" r.Response.id
    (Response.status_to_string r.Response.status)
    (Option.value ~default:"-" r.Response.program_text)
    r.Response.from_cache r.Response.degraded r.Response.attempts

let check_golden name expected lines =
  if Sys.getenv_opt "OBS_DUMP" <> None then begin
    Printf.printf "=== %s ===\n" name;
    List.iter (fun l -> Printf.printf "    %S;\n" l) lines;
    Printf.printf "=== end %s ===\n%!" name
  end;
  Alcotest.(check (list string)) name expected lines

(* --- span identity ---------------------------------------------------------------- *)

let test_span_identity () =
  let id ?(seed = 1) ?(request = 7) ?(attempt = 0) ?(seq = 3) ?(name = "parse")
      () =
    Span.id_of ~seed ~request ~attempt ~seq ~name
  in
  Alcotest.(check int64) "deterministic" (id ()) (id ());
  List.iter
    (fun (label, other) ->
      Alcotest.(check bool) (label ^ " changes the id") false
        (Int64.equal (id ()) other))
    [ ("seed", id ~seed:2 ());
      ("request", id ~request:8 ());
      ("attempt", id ~attempt:1 ());
      ("seq", id ~seq:4 ());
      ("name", id ~name:"exec" ()) ];
  (* the constructor derives its id from the same coordinates *)
  let sp =
    Span.v ~seed:1 ~request:7 ~seq:3 ~start_ns:123.0 ~dur_ns:4.0 "parse"
  in
  Alcotest.(check int64) "v agrees with id_of" (id ()) sp.Span.id;
  (* order ignores timestamps entirely *)
  let late = { sp with Span.start_ns = 9e9; dur_ns = 1e9 } in
  Alcotest.(check int) "order ignores time" 0 (Span.order sp late)

(* --- tracer ring ------------------------------------------------------------------ *)

let test_tracer_ring_overflow () =
  let t = Tracer.create ~seed:3 ~capacity:4 ~slots:1 () in
  for i = 0 to 9 do
    Tracer.record t ~slot:0
      (Span.v ~seed:3 ~request:0 ~seq:i ~start_ns:0.0 ~dur_ns:0.0 "s")
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Tracer.recorded t);
  Alcotest.(check int) "dropped = overflow" 6 (Tracer.dropped t);
  let kept = Tracer.spans t in
  Alcotest.(check int) "ring keeps capacity spans" 4 (List.length kept);
  (* the ring overwrites oldest-first: the survivors are the last four *)
  Alcotest.(check (list int)) "newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun (sp : Span.t) -> sp.Span.seq) kept);
  Tracer.reset t;
  Alcotest.(check int) "reset clears" 0 (Tracer.recorded t);
  Alcotest.(check int) "reset clears spans" 0 (List.length (Tracer.spans t))

let test_tracer_disabled_and_scopes () =
  Alcotest.(check bool) "disabled flag" false (Tracer.enabled Tracer.disabled);
  Tracer.record Tracer.disabled ~slot:0
    (Span.v ~seed:0 ~request:0 ~seq:0 ~start_ns:0.0 ~dur_ns:0.0 "x");
  Alcotest.(check int) "disabled records nothing" 0
    (Tracer.recorded Tracer.disabled);
  Alcotest.(check bool) "disabled scope is None" true
    (Tracer.scope Tracer.disabled ~slot:0 ~request:0 ~attempt:0 ~parent:0L
    = None);
  let t = Tracer.create ~seed:9 ~capacity:16 ~slots:1 () in
  let parent = Span.id_of ~seed:9 ~request:5 ~attempt:0 ~seq:3 ~name:"parse" in
  (match Tracer.scope t ~slot:0 ~request:5 ~attempt:0 ~parent with
  | None -> Alcotest.fail "enabled tracer must return a scope"
  | Some sc ->
      Tracer.sub sc ~seq:10 ~attrs:[ ("scored", "2") ] ~start_ns:1.0 ~dur_ns:2.0
        "decode.rank");
  match Tracer.spans t with
  | [ sp ] ->
      Alcotest.(check string) "child name" "decode.rank" sp.Span.name;
      Alcotest.(check (option int64)) "child parent" (Some parent) sp.Span.parent;
      Alcotest.(check int) "child request" 5 sp.Span.request
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* --- probes ----------------------------------------------------------------------- *)

let test_probe_counters () =
  let p = Probe.create () in
  Alcotest.(check (list (pair string int))) "fresh probe empty" [] (Probe.counts p);
  Probe.incr p Probe.Tokenize;
  Probe.incr p Probe.Tokenize;
  Probe.incr p Probe.Shed;
  Alcotest.(check int) "get" 2 (Probe.get p Probe.Tokenize);
  Alcotest.(check int) "untouched stage" 0 (Probe.get p Probe.Parse);
  (* non-zero only, in fixed stage order *)
  Alcotest.(check (list (pair string int))) "counts"
    [ ("tokenize", 2); ("shed", 1) ]
    (Probe.counts p);
  Probe.reset p;
  Alcotest.(check (list (pair string int))) "reset" [] (Probe.counts p)

let test_server_stage_counters_exact () =
  (* two passes over eight distinct utterances: the second pass is all cache
     hits, and the stage counters land exactly *)
  let reqs =
    List.mapi (fun i u -> Request.make ~id:i u)
      (distinct_utterances @ distinct_utterances)
  in
  let _, snap = serve ~workers:0 ~tracer:Tracer.disabled reqs in
  Alcotest.(check (list (pair string int))) "stage counters"
    [ ("tokenize", 16); ("cache_hit", 8); ("cache_miss", 8); ("parse", 8) ]
    snap.Metrics.stages

(* --- exact span-tree goldens ------------------------------------------------------ *)

let tree ?fault ?admission_capacity ?degrade ?(workers = 0) utterances =
  let tracer = new_tracer ~workers () in
  let _, _ = serve ?fault ?admission_capacity ?degrade ~workers ~tracer
      (requests_of utterances)
  in
  Export.tree_lines ~strict:true (Tracer.spans tracer)

let test_golden_clean () =
  check_golden "clean run span tree"
    [ "request req=0 att=0 status=ok";
      "  tokenize req=0 att=0";
      "  cache req=0 att=0 cache=miss";
      "  parse req=0 att=0";
      "    decode.rank req=0 att=0 scored=10";
      "    decode.beam req=0 att=0 kept=6";
      "    decode.slots req=0 att=0 completed=6";
      "request req=1 att=0 status=ok";
      "  tokenize req=1 att=0";
      "  cache req=1 att=0 cache=hit";
      "request req=2 att=0 status=ok";
      "  tokenize req=2 att=0";
      "  cache req=2 att=0 cache=miss";
      "  parse req=2 att=0";
      "    decode.rank req=2 att=0 scored=12";
      "    decode.beam req=2 att=0 kept=6";
      "    decode.slots req=2 att=0 completed=6" ]
    (tree [ "tweet alice"; "tweet alice"; "get a cat picture" ])

let test_golden_crash_retry () =
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 5; crash_rate = 1.0; crash_attempts = 1 }
  in
  check_golden "crash + retry span tree"
    [ "crash req=0 att=0";
      "retry req=0 att=0";
      "backoff req=0 att=0";
      "request req=0 att=1 status=ok";
      "  tokenize req=0 att=1";
      "  cache req=0 att=1 cache=miss";
      "  parse req=0 att=1";
      "    decode.rank req=0 att=1 scored=10";
      "    decode.beam req=0 att=1 kept=6";
      "    decode.slots req=0 att=1 completed=6" ]
    (tree ~fault [ "tweet alice" ])

let test_golden_drop_retry () =
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 9; drop_rate = 1.0; drop_attempts = 1 }
  in
  check_golden "drop + retry span tree"
    [ "drop req=0 att=0";
      "retry req=0 att=0";
      "backoff req=0 att=0";
      "request req=0 att=1 status=ok";
      "  tokenize req=0 att=1";
      "  cache req=0 att=1 cache=miss";
      "  parse req=0 att=1";
      "    decode.rank req=0 att=1 scored=10";
      "    decode.beam req=0 att=1 kept=6";
      "    decode.slots req=0 att=1 completed=6" ]
    (tree ~fault [ "tweet alice" ])

let test_golden_deadline_timeout () =
  (* 50 virtual ms of injected decode latency against a 5 ms deadline: the
     parse span carries the injected marker and the request resolves timeout *)
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 3; latency_rate = 1.0; latency_ns = 50e6 }
  in
  let tracer = new_tracer ~workers:0 () in
  let _ =
    serve ~fault ~workers:0 ~tracer
      [ Request.make ~deadline_ms:5.0 ~id:0 "tweet alice" ]
  in
  check_golden "deadline timeout span tree"
    [ "request req=0 att=0 status=timeout";
      "  tokenize req=0 att=0";
      "  cache req=0 att=0 cache=miss";
      "  parse req=0 att=0 injected=true";
      "    decode.rank req=0 att=0 scored=10";
      "    decode.beam req=0 att=0 kept=6";
      "    decode.slots req=0 att=0 completed=6" ]
    (Export.tree_lines ~strict:true (Tracer.spans tracer))

let test_golden_shed_and_degraded () =
  (* warm one key, then saturate a capacity-1 server: the repeat answers
     degraded from cache, the unknown key is shed *)
  let model = Lazy.force model in
  let tracer = new_tracer ~workers:0 () in
  let server =
    Server.create ~lib ~model ~admission_capacity:1 ~tracer ()
  in
  ignore (Server.run_batch server [ Request.make ~id:0 "tweet alice" ]);
  ignore
    (Server.run_batch server
       [ Request.make ~id:1 "tweet alice";
         Request.make ~id:2 "tweet alice";
         Request.make ~id:3 "tweet bob" ]);
  Server.shutdown server;
  check_golden "shed + degraded span tree"
    [ "request req=0 att=0 status=ok";
      "  tokenize req=0 att=0";
      "  cache req=0 att=0 cache=miss";
      "  parse req=0 att=0";
      "    decode.rank req=0 att=0 scored=10";
      "    decode.beam req=0 att=0 kept=6";
      "    decode.slots req=0 att=0 completed=6";
      "request req=1 att=0 status=ok";
      "  tokenize req=1 att=0";
      "  cache req=1 att=0 cache=hit";
      "degraded req=2 att=0";
      "shed req=3 att=0" ]
    (Export.tree_lines ~strict:true (Tracer.spans tracer))

(* --- digests across worker counts ------------------------------------------------- *)

let zipf_requests n =
  Traffic.generate
    ~rng:(Genie_util.Rng.create 11)
    ~utterances:distinct_utterances n

let test_clean_digest_identical_across_pools () =
  let digest workers =
    let tracer = new_tracer ~workers () in
    let _ = serve ~workers ~tracer (zipf_requests 60) in
    (Export.digest ~strict:true (Tracer.spans tracer),
     List.length (Tracer.spans tracer))
  in
  let d_seq, n_seq = digest 0 in
  let d2, n2 = digest 2 in
  let d4, n4 = digest 4 in
  Alcotest.(check bool) "spans recorded" true (n_seq > 0);
  Alcotest.(check int) "same span count 2w" n_seq n2;
  Alcotest.(check int) "same span count 4w" n_seq n4;
  Alcotest.(check string) "2-worker digest = sequential" d_seq d2;
  Alcotest.(check string) "4-worker digest = sequential" d_seq d4;
  (* and re-running is byte-stable *)
  let d_seq', _ = digest 0 in
  Alcotest.(check string) "repeat run identical" d_seq d_seq'

let test_fault_digest_identical_across_pools () =
  (* distinct keys per request: crash/drop decisions and cache outcomes are
     then (id, attempt)-pure in both paths, so even the strict digest —
     volatile attrs included — must agree *)
  let fault =
    Fault.create
      { Fault.default with
        Fault.seed = 21;
        crash_rate = 0.5;
        crash_attempts = 1;
        drop_rate = 0.3;
        drop_attempts = 1 }
  in
  let digest workers =
    let tracer = new_tracer ~workers () in
    let _ = serve ~fault ~workers ~tracer (requests_of distinct_utterances) in
    Export.digest ~strict:true (Tracer.spans tracer)
  in
  Alcotest.(check string) "pooled = sequential under faults" (digest 0) (digest 3)

let test_strict_vs_relaxed_digest () =
  let sp cache_attr =
    Span.v ~seed:1 ~request:0 ~seq:2 ~attrs:[ ("cache", cache_attr) ]
      ~start_ns:0.0 ~dur_ns:0.0 "cache"
  in
  let hit = [ sp "hit" ] and miss = [ sp "miss" ] in
  Alcotest.(check bool) "strict digests differ" false
    (Export.digest ~strict:true hit = Export.digest ~strict:true miss);
  Alcotest.(check string) "relaxed digests agree"
    (Export.digest ~strict:false hit)
    (Export.digest ~strict:false miss)

(* --- tracing is free of observable effect on responses ---------------------------- *)

let test_tracer_does_not_change_responses () =
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 21; crash_rate = 0.5; crash_attempts = 1 }
  in
  let run ~tracer =
    List.map response_digest
      (fst (serve ~fault ~workers:0 ~tracer (zipf_requests 40)))
  in
  Alcotest.(check (list string)) "responses byte-identical with tracing on"
    (run ~tracer:Tracer.disabled)
    (run ~tracer:(new_tracer ~workers:0 ()))

(* --- export: JSONL and flame ------------------------------------------------------ *)

let test_jsonl_shape () =
  let tracer = new_tracer ~workers:0 () in
  let _ = serve ~workers:0 ~tracer (requests_of distinct_utterances) in
  let spans = Tracer.spans tracer in
  let jsonl = Export.to_jsonl spans in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "compact object" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      Alcotest.(check bool) "id field" true
        (Genie_util.Tok.contains_substring ~sub:"\"id\":" line);
      Alcotest.(check bool) "single line" false (String.contains line '\n'))
    lines;
  (* parent references resolve within the trace *)
  let ids =
    List.fold_left
      (fun acc (sp : Span.t) -> sp.Span.id :: acc)
      [] spans
  in
  List.iter
    (fun (sp : Span.t) ->
      match sp.Span.parent with
      | None -> ()
      | Some p ->
          Alcotest.(check bool) "parent id present in trace" true
            (List.mem p ids))
    spans

let test_flame_self_time () =
  let tracer = new_tracer ~workers:0 () in
  let _ = serve ~workers:0 ~tracer (requests_of distinct_utterances) in
  let spans = Tracer.spans tracer in
  let frames = Export.flame spans in
  let frame name = List.find_opt (fun f -> f.Export.name = name) frames in
  (match frame "request" with
  | None -> Alcotest.fail "request frame missing"
  | Some f ->
      Alcotest.(check int) "one request frame per request" 8 f.Export.count;
      Alcotest.(check bool) "self <= total" true
        (f.Export.self_ns <= f.Export.total_ns +. 1e-6);
      Alcotest.(check bool) "self nonnegative" true (f.Export.self_ns >= 0.0));
  (match frame "decode.rank" with
  | None -> Alcotest.fail "decode frame missing"
  | Some f -> Alcotest.(check int) "one decode per miss" 8 f.Export.count);
  (* every span name lands in exactly one frame *)
  let names = List.sort_uniq compare (List.map (fun (sp : Span.t) -> sp.Span.name) spans) in
  Alcotest.(check int) "one frame per name" (List.length names)
    (List.length frames)

(* --- synthesis tracing ------------------------------------------------------------ *)

let test_synthesis_trace_deterministic () =
  let prims = Genie_thingpedia.Thingpedia.core_templates () in
  let rules = Genie_templates.Rules_thingtalk.rules lib in
  let run () =
    let g =
      Genie_templates.Grammar.create lib ~prims ~rules
        ~rng:(Genie_util.Rng.create 5) ()
    in
    let tracer = Tracer.create ~seed:7 ~capacity:65536 ~slots:1 () in
    let pairs =
      Genie_synthesis.Engine.synthesize ~tracer g
        { Genie_synthesis.Engine.default_config with
          seed = 5;
          target_per_rule = 20;
          max_depth = 3 }
    in
    (List.length pairs, Tracer.spans tracer)
  in
  let n1, spans1 = run () in
  let n2, spans2 = run () in
  Alcotest.(check int) "same corpus" n1 n2;
  Alcotest.(check bool) "spans recorded" true (List.length spans1 > 0);
  Alcotest.(check string) "seeded synthesis traces identically"
    (Export.digest ~strict:true spans1)
    (Export.digest ~strict:true spans2);
  (* structure: one depth root per depth, template spans nested beneath *)
  let roots =
    List.filter (fun (sp : Span.t) -> sp.Span.parent = None) spans1
  in
  Alcotest.(check (list string)) "depth roots" [ "depth"; "depth"; "depth" ]
    (List.map (fun (sp : Span.t) -> sp.Span.name) roots);
  List.iter
    (fun (sp : Span.t) ->
      if sp.Span.name = "template" then
        let depth_id =
          Span.id_of ~seed:7 ~request:sp.Span.request ~attempt:0 ~seq:0
            ~name:"depth"
        in
        Alcotest.(check (option int64)) "template hangs off its depth"
          (Some depth_id) sp.Span.parent)
    spans1

let suite =
  [ Alcotest.test_case "span identity" `Quick test_span_identity;
    Alcotest.test_case "tracer ring overflow" `Quick test_tracer_ring_overflow;
    Alcotest.test_case "disabled tracer + scopes" `Quick
      test_tracer_disabled_and_scopes;
    Alcotest.test_case "probe counters" `Quick test_probe_counters;
    Alcotest.test_case "server stage counters exact" `Quick
      test_server_stage_counters_exact;
    Alcotest.test_case "golden: clean run" `Quick test_golden_clean;
    Alcotest.test_case "golden: crash + retry" `Quick test_golden_crash_retry;
    Alcotest.test_case "golden: drop + retry" `Quick test_golden_drop_retry;
    Alcotest.test_case "golden: deadline timeout" `Quick
      test_golden_deadline_timeout;
    Alcotest.test_case "golden: shed + degraded" `Quick
      test_golden_shed_and_degraded;
    Alcotest.test_case "clean digest identical across pools" `Quick
      test_clean_digest_identical_across_pools;
    Alcotest.test_case "fault digest identical across pools" `Quick
      test_fault_digest_identical_across_pools;
    Alcotest.test_case "strict vs relaxed digest" `Quick
      test_strict_vs_relaxed_digest;
    Alcotest.test_case "tracer does not change responses" `Quick
      test_tracer_does_not_change_responses;
    Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
    Alcotest.test_case "flame self time" `Quick test_flame_self_time;
    Alcotest.test_case "synthesis trace deterministic" `Quick
      test_synthesis_trace_deterministic ]
