(* Tests for the serving layer: LRU parse cache, bounded channel, Domain
   worker pool, metrics histogram, Zipfian traffic, the server facade — and
   the robustness layer: seeded fault schedules (worker crashes, injected
   latency, dropped messages), per-request deadlines, bounded-queue
   admission control, retry with backoff, and cache-only degradation.

   Every fault decision is a pure function of (schedule seed, request id,
   attempt), so these tests assert exact outcomes — statuses, attempt
   counts, shed sets — not probabilistic ones, and repeat runs must be
   byte-identical whether the server is sequential or pooled.

   Servers default to the sequential path (workers = 0); only the tests that
   specifically exercise the pool spawn domains, and they use small worker
   counts so the suite stays robust on single-core machines. *)

open Genie_thingtalk
open Genie_serve
open Genie_conc
module Lru = Genie_util.Lru

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

(* A tiny but non-degenerate training set (mirrors suite_parser_model). *)
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

let utterances =
  [ "tweet alice"; "tweet bob"; "show me emails from carol"; "get a cat picture";
    "when i receive an email , get a cat picture"; "tweet dan";
    "show me emails from eve"; "tweet mallory" ]

(* the counter-partition invariant that must hold in every snapshot *)
let check_invariant ?(msg = "requests = ok + no_parse + errors + timeouts + shed")
    server =
  let m = Server.metrics_snapshot server in
  Alcotest.(check int)
    msg m.Metrics.requests
    (m.Metrics.ok + m.Metrics.no_parse + m.Metrics.errors + m.Metrics.timeouts
   + m.Metrics.shed)

(* everything deterministic about a response, cache flags included *)
let digest (r : Response.t) =
  Printf.sprintf "#%d %s %s cache=%b degraded=%b attempts=%d" r.Response.id
    (Response.status_to_string r.Response.status)
    (Option.value ~default:"-" r.Response.program_text)
    r.Response.from_cache r.Response.degraded r.Response.attempts

(* the subset that must also agree between sequential and pooled runs (cache
   flags may differ: a pooled retry can re-enter behind a same-key request) *)
let cross_path_digest (r : Response.t) =
  Printf.sprintf "#%d %s %s attempts=%d" r.Response.id
    (Response.status_to_string r.Response.status)
    (Option.value ~default:"-" r.Response.program_text)
    r.Response.attempts

(* what a response reports of its own run *)
let run_fields (r : Response.t) =
  Printf.sprintf "notif=%d fx=%d err=%s" r.Response.notifications
    r.Response.side_effects
    (Option.value ~default:"-" r.Response.error)

(* everything deterministic about an executed response, execution results
   included — the compiled path must reproduce all of it byte for byte *)
let exec_digest r = digest r ^ " " ^ run_fields r

(* the subset of an executed response that must agree at every worker count
   and in every arrival order *)
let cross_path_exec_digest r = cross_path_digest r ^ " " ^ run_fields r

let exec_requests n seed =
  List.map
    (fun (r : Request.t) ->
      Request.make ~execute:true
        ~ticks:(1 + (r.Request.id mod 4))
        ~id:r.Request.id r.Request.utterance)
    (Traffic.generate ~rng:(Genie_util.Rng.create seed) ~utterances:utterances n)

(* --- parse cache -------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (list string)) "mru order" [ "b"; "a" ] (Lru.keys_mru c);
  (* touching [a] protects it; adding [c] evicts [b] *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (list string)) "b evicted" [ "c"; "a" ] (Lru.keys_mru c);
  Alcotest.(check bool) "b gone" false (Lru.mem c "b");
  let s = Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "one hit" 1 s.Lru.hits

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "a cached" (Some 1) (Lru.find c "a");
  Lru.add c "b" 2;
  Alcotest.(check bool) "a evicted" false (Lru.mem c "a");
  Alcotest.(check (option int)) "b cached" (Some 2) (Lru.find c "b");
  Alcotest.(check int) "length" 1 (Lru.length c);
  (* re-adding the resident key must not evict it *)
  Lru.add c "b" 20;
  Alcotest.(check (option int)) "replaced in place" (Some 20) (Lru.find c "b");
  Alcotest.(check int) "single eviction" 1 (Lru.stats c).Lru.evictions

let test_lru_capacity_zero () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "nothing stored" None (Lru.find c "a");
  Alcotest.(check (option int)) "still nothing" None (Lru.find c "a");
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Alcotest.(check int) "two misses" 2 (Lru.stats c).Lru.misses

(* --- cached parse is byte-identical to a cold parse ----------------------------- *)

let test_cached_response_identical () =
  let model = Lazy.force model in
  let server = Server.create ~lib ~model () in
  let cold_server = Server.create ~lib ~model () in
  List.iter
    (fun utterance ->
      let r1 = Server.handle server (Request.make ~id:0 utterance) in
      let r2 = Server.handle server (Request.make ~id:1 utterance) in
      let cold = Server.handle cold_server (Request.make ~id:2 utterance) in
      Alcotest.(check bool) "first is a miss" false r1.Response.from_cache;
      Alcotest.(check bool) "second is a hit" true r2.Response.from_cache;
      (* the cached response equals both the original and an independent
         cold parse, byte for byte *)
      Alcotest.(check (option string)) "hit = miss program"
        r1.Response.program_text r2.Response.program_text;
      Alcotest.(check (list string)) "hit = miss nn tokens"
        r1.Response.nn_tokens r2.Response.nn_tokens;
      Alcotest.(check (float 0.0)) "hit = miss score" r1.Response.score
        r2.Response.score;
      Alcotest.(check (option string)) "hit = cold program"
        cold.Response.program_text r2.Response.program_text;
      Alcotest.(check (list string)) "hit = cold nn tokens"
        cold.Response.nn_tokens r2.Response.nn_tokens)
    utterances;
  let s = Server.stats server in
  Alcotest.(check int) "hits" (List.length utterances) s.Server.cache_hits;
  Alcotest.(check int) "misses" (List.length utterances) s.Server.cache_misses;
  check_invariant server

(* --- chan ----------------------------------------------------------------------- *)

let test_chan_fifo_and_close () =
  let c = Chan.create ~capacity:4 in
  Chan.push c 1;
  Chan.push c 2;
  Chan.push c 3;
  Alcotest.(check int) "length" 3 (Chan.length c);
  Chan.close c;
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Chan.pop c);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Chan.pop c);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Chan.pop c);
  Alcotest.(check (option int)) "drained" None (Chan.pop c);
  Alcotest.check_raises "push after close" Chan.Closed (fun () -> Chan.push c 4)

let test_chan_try_push () =
  let c = Chan.create ~capacity:2 in
  Alcotest.(check bool) "fits 1" true (Chan.try_push c 1);
  Alcotest.(check bool) "fits 2" true (Chan.try_push c 2);
  Alcotest.(check bool) "full" false (Chan.try_push c 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Chan.pop c);
  Alcotest.(check bool) "fits again" true (Chan.try_push c 4);
  Chan.close c;
  Alcotest.check_raises "try_push after close" Chan.Closed (fun () ->
      ignore (Chan.try_push c 5))

let test_chan_try_push_capacity_boundary () =
  (* exactly at capacity: the nth push fits, the (n+1)th is refused, and one
     pop reopens exactly one slot *)
  let cap = 3 in
  let c = Chan.create ~capacity:cap in
  for i = 1 to cap do
    Alcotest.(check bool) (Printf.sprintf "push %d fits" i) true (Chan.try_push c i)
  done;
  Alcotest.(check int) "full at capacity" cap (Chan.length c);
  Alcotest.(check bool) "push cap+1 refused" false (Chan.try_push c (cap + 1));
  Alcotest.(check bool) "still refused" false (Chan.try_push c (cap + 1));
  Alcotest.(check int) "refusals do not grow the queue" cap (Chan.length c);
  Alcotest.(check (option int)) "fifo head" (Some 1) (Chan.pop c);
  Alcotest.(check bool) "one slot reopened" true (Chan.try_push c 10);
  Alcotest.(check bool) "and only one" false (Chan.try_push c 11);
  (* declared capacity 0 clamps to 1: one element fits, the second does not *)
  let z = Chan.create ~capacity:0 in
  Alcotest.(check bool) "clamped capacity holds one" true (Chan.try_push z 1);
  Alcotest.(check bool) "second refused" false (Chan.try_push z 2);
  Alcotest.(check (option int)) "clamped element preserved" (Some 1) (Chan.pop z)

(* --- pool ------------------------------------------------------------------------ *)

let test_pool_roundtrip () =
  let pool =
    Pool.create ~workers:2 ~queue_capacity:4 ~handler:(fun w x -> (w, x * x)) ()
  in
  let items = List.init 20 (fun i -> i) in
  List.iter (fun i -> Pool.submit pool ~worker:i i) items;
  let results = Pool.drain pool 20 in
  Pool.shutdown pool;
  Alcotest.(check int) "all results" 20 (List.length results);
  let squares = List.sort compare (List.map snd results) in
  Alcotest.(check (list int)) "squares" (List.map (fun i -> i * i) items) squares;
  (* sharding respected: worker w only processed items with i mod 2 = w *)
  List.iter
    (fun (w, sq) ->
      let i = int_of_float (sqrt (float_of_int sq) +. 0.5) in
      Alcotest.(check int) "sharded to the right worker" (i mod 2) w)
    results

let test_pool_handler_exception_surfaces () =
  let pool =
    Pool.create ~workers:2 ~queue_capacity:2
      ~handler:(fun _ x -> if x = 3 then failwith "boom" else x)
      ()
  in
  List.iter (fun i -> Pool.submit pool ~worker:i i) [ 0; 1; 2; 3 ];
  (match Pool.drain pool 4 with
  | _ -> Alcotest.fail "expected the handler exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  Pool.shutdown pool

let test_pool_drain_results_pairs_failures () =
  let pool =
    Pool.create ~workers:2 ~queue_capacity:4
      ~handler:(fun _ x -> if x mod 2 = 1 then failwith "odd" else x * 10)
      ()
  in
  List.iter (fun i -> Pool.submit pool ~worker:i i) [ 0; 1; 2; 3 ];
  let results = Pool.drain_results pool 4 in
  Pool.shutdown pool;
  let ok, failed =
    List.partition (function Stdlib.Ok _ -> true | _ -> false) results
  in
  Alcotest.(check int) "two ok" 2 (List.length ok);
  Alcotest.(check int) "two failed" 2 (List.length failed);
  (* each failure carries the request that caused it, so nothing is lost *)
  let failed_reqs =
    List.sort compare
      (List.filter_map
         (function Stdlib.Error (req, _) -> Some req | _ -> None)
         results)
  in
  Alcotest.(check (list int)) "failed requests identified" [ 1; 3 ] failed_reqs

let test_pool_fault_hook_drops () =
  let pool =
    Pool.create ~workers:2 ~queue_capacity:4
      ~fault_hook:(fun _ x -> if x = 2 then Some Fault.Injected_drop else None)
      ~handler:(fun _ x -> x)
      ()
  in
  List.iter (fun i -> Pool.submit pool ~worker:i i) [ 0; 1; 2; 3 ];
  let results = Pool.drain_results pool 4 in
  Pool.shutdown pool;
  let dropped =
    List.filter_map
      (function
        | Stdlib.Error (req, Fault.Injected_drop) -> Some req | _ -> None)
      results
  in
  (* the dropped message is reported, not silently lost *)
  Alcotest.(check (list int)) "drop reported with its request" [ 2 ] dropped

(* --- worker-pool determinism: pooled = sequential --------------------------------- *)

let test_pool_matches_sequential () =
  let model = Lazy.force model in
  let requests = exec_requests 60 11 in
  let seq = Server.create ~lib ~model () in
  let seq_responses = Server.run_batch seq requests in
  let pooled = Server.create ~lib ~model ~workers:3 ~queue_capacity:8 () in
  let pooled_responses = Server.run_batch pooled requests in
  Server.shutdown pooled;
  Alcotest.(check int) "same count" (List.length seq_responses)
    (List.length pooled_responses);
  (* identical multiset of (id, parse) -- run_batch sorts by id, so direct
     pairwise comparison checks the multiset *)
  List.iter2
    (fun (a : Response.t) (b : Response.t) ->
      Alcotest.(check int) "same id" a.Response.id b.Response.id;
      Alcotest.(check string) "same utterance" a.Response.utterance b.Response.utterance;
      Alcotest.(check (option string)) "same program" a.Response.program_text
        b.Response.program_text;
      Alcotest.(check (list string)) "same nn tokens" a.Response.nn_tokens
        b.Response.nn_tokens;
      Alcotest.(check string) "same run" (run_fields a) (run_fields b))
    seq_responses pooled_responses;
  (* key-sharding means the pooled run decodes each distinct key exactly
     once, like the sequential run *)
  let misses s = (Server.stats s).Server.cache_misses in
  Alcotest.(check int) "same decode count" (misses seq) (misses pooled)

let test_cache_eviction_under_alternating_keys () =
  let model = Lazy.force model in
  (* capacity-1 caches and two alternating keys: on one engine every decode
     evicts the other key, so the cache thrashes deterministically *)
  let reqs =
    List.init 24 (fun i ->
        Request.make ~id:i (if i mod 2 = 0 then "tweet alice" else "tweet bob"))
  in
  let run ~workers () =
    let server =
      Server.create ~lib ~model ~cache_capacity:1 ~workers ~queue_capacity:32 ()
    in
    let rs = Server.run_batch server reqs in
    let s = Server.stats server in
    check_invariant server;
    Server.shutdown server;
    (List.map cross_path_digest rs, s)
  in
  let seq1, s_seq = run ~workers:0 () in
  let seq2, _ = run ~workers:0 () in
  Alcotest.(check (list string)) "sequential deterministic" seq1 seq2;
  Alcotest.(check int) "alternation defeats a capacity-1 cache" 24
    s_seq.Server.cache_misses;
  Alcotest.(check int) "every add after the first evicts" 23
    s_seq.Server.cache_evictions;
  Alcotest.(check int) "resident entry bounded by capacity" 1
    s_seq.Server.cache_entries;
  (* the pooled path may shard the two keys apart (fewer misses, no thrash)
     but must stay deterministic and answer identically *)
  let pooled1, s_pooled = run ~workers:2 () in
  let pooled2, _ = run ~workers:2 () in
  Alcotest.(check (list string)) "pooled deterministic" pooled1 pooled2;
  Alcotest.(check (list string)) "pooled answers = sequential" seq1 pooled1;
  Alcotest.(check int) "pooled accounts for every lookup" 24
    (s_pooled.Server.cache_hits + s_pooled.Server.cache_misses)

let test_concurrent_same_key_coalesces () =
  let model = Lazy.force model in
  (* sixteen concurrent submits of one key through real domain workers: the
     key shards to a single worker, whose FIFO guarantees exactly one decode
     warms the cache and every later submit hits it — even at capacity 1 *)
  let server =
    Server.create ~lib ~model ~cache_capacity:1 ~workers:2 ~queue_capacity:32 ()
  in
  let rs =
    Server.run_batch server
      (List.init 16 (fun i -> Request.make ~id:i "tweet alice"))
  in
  let s = Server.stats server in
  check_invariant server;
  Server.shutdown server;
  Alcotest.(check int) "one decode" 1 s.Server.cache_misses;
  Alcotest.(check int) "fifteen hits" 15 s.Server.cache_hits;
  Alcotest.(check int) "no evictions on a single hot key" 0
    s.Server.cache_evictions;
  let programs =
    List.sort_uniq compare
      (List.map (fun (r : Response.t) -> r.Response.program_text) rs)
  in
  Alcotest.(check int) "one distinct program" 1 (List.length programs);
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check string) "status ok" "ok"
        (Response.status_to_string r.Response.status))
    rs

(* --- fault schedules --------------------------------------------------------------- *)

let test_fault_spec_roundtrip () =
  let spec_str = "seed=7,crash=0.25,crash_attempts=2,latency=0.5,latency_ms=2,drop=0.1" in
  (match Fault.of_string spec_str with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok f ->
      let s = Fault.spec f in
      Alcotest.(check int) "seed" 7 s.Fault.seed;
      Alcotest.(check (float 0.0)) "crash" 0.25 s.Fault.crash_rate;
      Alcotest.(check int) "crash_attempts" 2 s.Fault.crash_attempts;
      Alcotest.(check (float 0.0)) "latency_ns" 2e6 s.Fault.latency_ns;
      Alcotest.(check (float 0.0)) "drop" 0.1 s.Fault.drop_rate;
      (* to_string round-trips *)
      (match Fault.of_string (Fault.to_string f) with
      | Ok f' -> Alcotest.(check bool) "round trip" true (Fault.spec f' = s)
      | Error e -> Alcotest.failf "round trip rejected: %s" e));
  (match Fault.of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ());
  (match Fault.of_string "crash=2.0" with
  | Ok _ -> Alcotest.fail "out-of-range rate accepted"
  | Error _ -> ());
  Alcotest.(check bool) "none inactive" false (Fault.active Fault.none)

let test_fault_decisions_deterministic () =
  let f =
    Fault.create
      { Fault.default with Fault.seed = 13; crash_rate = 0.3; drop_rate = 0.2 }
  in
  (* pure in (id, attempt): repeated queries agree *)
  for id = 0 to 199 do
    Alcotest.(check bool) "crash stable"
      (Fault.crashes f ~id ~attempt:0)
      (Fault.crashes f ~id ~attempt:0);
    Alcotest.(check bool) "drop stable" (Fault.drops f ~id ~attempt:0)
      (Fault.drops f ~id ~attempt:0)
  done;
  (* the hit fraction is in the right ballpark for the rate *)
  let hits =
    List.length
      (List.filter
         (fun id -> Fault.crashes f ~id ~attempt:0)
         (List.init 1000 Fun.id))
  in
  Alcotest.(check bool) "crash rate ~0.3" true (hits > 200 && hits < 400);
  (* a different seed selects a different subset *)
  let g = Fault.create { (Fault.spec f) with Fault.seed = 14 } in
  let differs =
    List.exists
      (fun id -> Fault.crashes f ~id ~attempt:0 <> Fault.crashes g ~id ~attempt:0)
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "seed matters" true differs

let test_backoff_deterministic_and_bounded () =
  let f = Fault.none in
  let base = 1e6 in
  for attempt = 0 to 4 do
    let b = Fault.backoff_ns f ~base_ns:base ~id:5 ~attempt in
    Alcotest.(check (float 0.0)) "deterministic" b
      (Fault.backoff_ns f ~base_ns:base ~id:5 ~attempt);
    let scale = base *. Float.pow 2.0 (float_of_int attempt) in
    Alcotest.(check bool) "within [0.5, 1.0) of the exponential envelope" true
      (b >= 0.5 *. scale && b < scale)
  done

(* --- crash injection + retry --------------------------------------------------------- *)

let crash_all ~attempts =
  Fault.create
    { Fault.default with
      Fault.seed = 5;
      crash_rate = 1.0;
      crash_attempts = attempts }

let test_crash_retried_and_answered () =
  let model = Lazy.force model in
  (* every first decode attempt crashes; one retry answers *)
  let server =
    Server.create ~lib ~model ~fault:(crash_all ~attempts:1) ~max_retries:2
      ~retry_backoff_ms:0.01 ()
  in
  let clean = Server.create ~lib ~model () in
  let reqs = List.mapi (fun i u -> Request.make ~id:i u) utterances in
  let rs = Server.run_batch server reqs in
  let clean_rs = Server.run_batch clean reqs in
  Alcotest.(check int) "all answered" (List.length reqs) (List.length rs);
  List.iter2
    (fun (r : Response.t) (c : Response.t) ->
      Alcotest.(check string) "status ok" "ok"
        (Response.status_to_string r.Response.status);
      Alcotest.(check int) "one retry" 2 r.Response.attempts;
      (* the retried answer is the same parse the clean server produces *)
      Alcotest.(check (option string)) "same program as clean"
        c.Response.program_text r.Response.program_text)
    rs clean_rs;
  let s = Server.stats server in
  Alcotest.(check int) "retry per request" (List.length reqs) s.Server.retries;
  Alcotest.(check int) "all ok" (List.length reqs) s.Server.ok;
  Alcotest.(check int) "no errors" 0 s.Server.errors;
  check_invariant server;
  (* crashes are scheduled before the cache lookup, so even a repeat of an
     answered utterance crashes once; its retry answers from the cache *)
  let repeat = Server.handle server (Request.make ~id:100 "tweet alice") in
  Alcotest.(check bool) "retry answers from cache" true repeat.Response.from_cache;
  Alcotest.(check int) "one crash, one retry" 2 repeat.Response.attempts

let test_crash_exhausts_retries () =
  let model = Lazy.force model in
  let server =
    Server.create ~lib ~model ~fault:(crash_all ~attempts:10) ~max_retries:1
      ~retry_backoff_ms:0.01 ()
  in
  let reqs = List.mapi (fun i u -> Request.make ~id:i u) utterances in
  let rs = Server.run_batch server reqs in
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check string) "status error" "error"
        (Response.status_to_string r.Response.status);
      Alcotest.(check int) "gave up after max_retries + 1" 2 r.Response.attempts;
      Alcotest.(check bool) "error detail present" true
        (Option.is_some r.Response.error))
    rs;
  let s = Server.stats server in
  Alcotest.(check int) "all errors" (List.length reqs) s.Server.errors;
  Alcotest.(check int) "ok none" 0 s.Server.ok;
  check_invariant server

(* --- dropped messages ------------------------------------------------------------------ *)

let test_drop_retried_and_answered () =
  let model = Lazy.force model in
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 9; drop_rate = 1.0; drop_attempts = 1 }
  in
  let check server =
    let reqs = List.mapi (fun i u -> Request.make ~id:i u) utterances in
    let rs = Server.run_batch server reqs in
    Alcotest.(check int) "all answered" (List.length reqs) (List.length rs);
    List.iter
      (fun (r : Response.t) ->
        Alcotest.(check string) "status ok" "ok"
          (Response.status_to_string r.Response.status);
        Alcotest.(check int) "answered on the retry" 2 r.Response.attempts)
      rs;
    check_invariant server;
    Server.stats server
  in
  let seq =
    Server.create ~lib ~model ~fault ~max_retries:2 ~retry_backoff_ms:0.01 ()
  in
  let s_seq = check seq in
  (* same schedule through real domain workers: the pool reports each
     dropped message and the coordinator recovers it *)
  let pooled =
    Server.create ~lib ~model ~workers:2 ~queue_capacity:8 ~fault ~max_retries:2
      ~retry_backoff_ms:0.01 ()
  in
  let s_pooled = check pooled in
  Server.shutdown pooled;
  Alcotest.(check int) "same retry count" s_seq.Server.retries
    s_pooled.Server.retries

let test_drop_exhausts_retries () =
  let model = Lazy.force model in
  let fault =
    Fault.create
      { Fault.default with Fault.seed = 9; drop_rate = 1.0; drop_attempts = 10 }
  in
  let server =
    Server.create ~lib ~model ~fault ~max_retries:1 ~retry_backoff_ms:0.01 ()
  in
  let rs = Server.run_batch server [ Request.make ~id:0 "tweet alice" ] in
  (match rs with
  | [ r ] ->
      Alcotest.(check string) "status error" "error"
        (Response.status_to_string r.Response.status);
      Alcotest.(check bool) "drop named in the error" true
        (Option.is_some r.Response.error)
  | _ -> Alcotest.fail "expected exactly one response");
  check_invariant server

(* --- deadlines -------------------------------------------------------------------------- *)

let test_deadline_timeout_with_timings () =
  let model = Lazy.force model in
  (* every decode gets 50 virtual ms injected; deadlines are 5 ms, so every
     uncached request times out regardless of machine speed *)
  let fault =
    Fault.create
      { Fault.default with
        Fault.seed = 3;
        latency_rate = 1.0;
        latency_ns = 50e6 }
  in
  let server = Server.create ~lib ~model ~fault () in
  let reqs =
    List.mapi (fun i u -> Request.make ~deadline_ms:5.0 ~id:i u) utterances
  in
  let rs = Server.run_batch server reqs in
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check string) "status timeout" "timeout"
        (Response.status_to_string r.Response.status);
      Alcotest.(check (option string)) "no program delivered" None
        r.Response.program_text;
      (* stage timings are still populated: the injected decode latency is
         visible in the parse stage and the total exceeds the deadline *)
      Alcotest.(check bool) "parse stage includes injected latency" true
        (r.Response.timing.Response.parse_ns >= 50e6);
      Alcotest.(check bool) "total exceeds deadline" true
        (r.Response.timing.Response.total_ns > 5e6);
      Alcotest.(check bool) "tokenize stage measured" true
        (r.Response.timing.Response.tokenize_ns >= 0.0))
    rs;
  let s = Server.stats server in
  Alcotest.(check int) "all timed out" (List.length reqs) s.Server.timeouts;
  check_invariant server;
  (* the timed-out decode still warmed the cache, and cache hits always
     answer: the same utterance under the same deadline now succeeds *)
  let again =
    Server.handle server (Request.make ~deadline_ms:5.0 ~id:100 "tweet alice")
  in
  Alcotest.(check string) "cache hit beats deadline" "ok"
    (Response.status_to_string again.Response.status);
  Alcotest.(check bool) "served from cache" true again.Response.from_cache;
  check_invariant server

(* --- admission control / shedding -------------------------------------------------------- *)

let test_queue_full_sheds () =
  let model = Lazy.force model in
  let server =
    Server.create ~lib ~model ~admission_capacity:2 ~degrade:false ()
  in
  let reqs = List.mapi (fun i u -> Request.make ~id:i u) (List.filteri (fun i _ -> i < 5) utterances) in
  let rs = Server.run_batch server reqs in
  let statuses =
    List.map (fun (r : Response.t) -> Response.status_to_string r.Response.status) rs
  in
  (* the batch "arrives at once": the first two requests fit the queue, the
     rest are shed explicitly rather than blocking *)
  Alcotest.(check (list string)) "first fit, rest shed"
    [ "ok"; "ok"; "overloaded"; "overloaded"; "overloaded" ] statuses;
  List.iter
    (fun (r : Response.t) ->
      if r.Response.status = Response.Overloaded then begin
        Alcotest.(check (option string)) "no program" None r.Response.program_text;
        Alcotest.(check int) "never attempted" 0 r.Response.attempts
      end)
    rs;
  let s = Server.stats server in
  Alcotest.(check int) "shed counter" 3 s.Server.shed;
  Alcotest.(check int) "requests include shed" 5 s.Server.requests;
  check_invariant server

(* --- graceful degradation ------------------------------------------------------------------ *)

let test_saturated_pool_degrades_to_cache () =
  let model = Lazy.force model in
  let server = Server.create ~lib ~model ~admission_capacity:1 () in
  let cold_server = Server.create ~lib ~model () in
  (* warm: one clean parse of "tweet alice" *)
  (match Server.run_batch server [ Request.make ~id:0 "tweet alice" ] with
  | [ r ] ->
      Alcotest.(check string) "warmup ok" "ok"
        (Response.status_to_string r.Response.status)
  | _ -> Alcotest.fail "expected one warmup response");
  (* saturate: capacity 1, four requests. The first is served; repeats of
     the known utterance are answered from the degraded cache; the unknown
     utterance is shed. *)
  let rs =
    Server.run_batch server
      [ Request.make ~id:1 "tweet alice";
        Request.make ~id:2 "tweet alice";
        Request.make ~id:3 "tweet alice";
        Request.make ~id:4 "tweet bob" ]
  in
  let cold = Server.handle cold_server (Request.make ~id:0 "tweet alice") in
  (match rs with
  | [ r1; r2; r3; r4 ] ->
      Alcotest.(check string) "in-budget request served" "ok"
        (Response.status_to_string r1.Response.status);
      Alcotest.(check bool) "not degraded" false r1.Response.degraded;
      List.iter
        (fun (r : Response.t) ->
          Alcotest.(check string) "degraded answer is ok" "ok"
            (Response.status_to_string r.Response.status);
          Alcotest.(check bool) "marked degraded" true r.Response.degraded;
          Alcotest.(check bool) "from cache" true r.Response.from_cache;
          (* byte-identical to an independent cold parse *)
          Alcotest.(check (option string)) "degraded = cold parse"
            cold.Response.program_text r.Response.program_text;
          Alcotest.(check (list string)) "degraded = cold nn tokens"
            cold.Response.nn_tokens r.Response.nn_tokens)
        [ r2; r3 ];
      Alcotest.(check string) "unknown utterance shed" "overloaded"
        (Response.status_to_string r4.Response.status)
  | _ -> Alcotest.fail "expected four responses");
  let s = Server.stats server in
  Alcotest.(check int) "degraded counter" 2 s.Server.degraded;
  Alcotest.(check int) "shed counter" 1 s.Server.shed;
  check_invariant server

(* --- determinism across paths and runs ------------------------------------------------------- *)

let mixed_fault =
  lazy
    (Fault.create
       { Fault.default with
         Fault.seed = 21;
         crash_rate = 0.5;
         crash_attempts = 1;
         drop_rate = 0.3;
         drop_attempts = 1 })

let test_fault_schedule_repeatable () =
  let model = Lazy.force model in
  let requests = exec_requests 40 11 in
  let run ~workers () =
    let server =
      Server.create ~lib ~model ~workers ~queue_capacity:8
        ~fault:(Lazy.force mixed_fault) ~max_retries:3 ~retry_backoff_ms:0.01 ()
    in
    let rs = Server.run_batch server requests in
    Server.shutdown server;
    rs
  in
  (* same configuration, fresh server: byte-identical outcomes *)
  Alcotest.(check (list string)) "sequential runs identical"
    (List.map exec_digest (run ~workers:0 ()))
    (List.map exec_digest (run ~workers:0 ()));
  Alcotest.(check (list string)) "pooled runs identical"
    (List.map exec_digest (run ~workers:3 ()))
    (List.map exec_digest (run ~workers:3 ()));
  (* and the schedule's outcomes do not depend on the worker count *)
  Alcotest.(check (list string)) "pooled = sequential under faults"
    (List.map cross_path_exec_digest (run ~workers:0 ()))
    (List.map cross_path_exec_digest (run ~workers:3 ()))

let test_pooled_faults_account_for_every_request () =
  let model = Lazy.force model in
  let n = 60 in
  let requests =
    Traffic.generate ~rng:(Genie_util.Rng.create 17) ~utterances:utterances n
  in
  let server =
    Server.create ~lib ~model ~workers:3 ~queue_capacity:8
      ~fault:(Lazy.force mixed_fault) ~max_retries:3 ~retry_backoff_ms:0.01 ()
  in
  let rs = Server.run_batch server requests in
  Server.shutdown server;
  (* exactly one response per submitted id: nothing dropped, nothing
     duplicated, no deadlock *)
  Alcotest.(check (list int)) "every id answered exactly once"
    (List.init n Fun.id)
    (List.map (fun (r : Response.t) -> r.Response.id) rs);
  (* crash and drop schedules overlap at attempt 0 at most once per request,
     so with retries available every request resolves cleanly *)
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check bool) "resolved ok" true (r.Response.status = Response.Ok);
      Alcotest.(check bool) "at most one retry" true (r.Response.attempts <= 2))
    rs;
  let m = Server.metrics_snapshot server in
  Alcotest.(check int) "requests" n m.Metrics.requests;
  Alcotest.(check int) "no silent drops: errors" 0 m.Metrics.errors;
  Alcotest.(check int) "no silent drops: timeouts" 0 m.Metrics.timeouts;
  Alcotest.(check int) "no silent drops: shed" 0 m.Metrics.shed;
  check_invariant server

let test_pooled_admission_deterministic () =
  let model = Lazy.force model in
  (* one hot key: every request shards to the same worker, so exactly
     [admission_capacity] fit and the overflow is shed, deterministically *)
  let run () =
    let server =
      Server.create ~lib ~model ~workers:2 ~queue_capacity:8
        ~admission_capacity:5 ~degrade:false ()
    in
    let rs =
      Server.run_batch server
        (List.init 12 (fun i -> Request.make ~id:i "tweet alice"))
    in
    let stats = Server.stats server in
    check_invariant server;
    Server.shutdown server;
    (List.map digest rs, stats)
  in
  let d1, s1 = run () in
  let d2, s2 = run () in
  Alcotest.(check (list string)) "repeatable" d1 d2;
  Alcotest.(check int) "five served" 5 s1.Server.ok;
  Alcotest.(check int) "seven shed" 7 s1.Server.shed;
  Alcotest.(check int) "same shed count across runs" s1.Server.shed s2.Server.shed

(* --- metrics ----------------------------------------------------------------------- *)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  (* 90 requests at ~1ms, 10 at ~100ms *)
  for _ = 1 to 90 do
    Metrics.record m ~latency_ns:1e6 ()
  done;
  for _ = 1 to 10 do
    Metrics.record m ~latency_ns:1e8 ()
  done;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "requests" 100 s.Metrics.requests;
  Alcotest.(check int) "all ok" 100 s.Metrics.ok;
  (* geometric buckets have <= ~12% relative error *)
  Alcotest.(check bool) "p50 ~ 1ms" true (s.Metrics.p50_ms > 0.8 && s.Metrics.p50_ms < 1.3);
  Alcotest.(check bool) "p95 ~ 100ms" true (s.Metrics.p95_ms > 80.0 && s.Metrics.p95_ms < 130.0);
  Alcotest.(check bool) "p99 ~ 100ms" true (s.Metrics.p99_ms > 80.0 && s.Metrics.p99_ms < 130.0);
  Alcotest.(check bool) "mean between" true (s.Metrics.mean_ms > 5.0 && s.Metrics.mean_ms < 20.0);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.snapshot m).Metrics.requests

let test_metrics_concurrent_records () =
  let m = Metrics.create () in
  let bump () = for _ = 1 to 500 do Metrics.record m ~latency_ns:2e6 () done in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  Alcotest.(check int) "no lost updates" 1000 (Metrics.snapshot m).Metrics.requests

(* --- traffic ------------------------------------------------------------------------ *)

let test_traffic_deterministic_and_zipfian () =
  let gen seed =
    List.map
      (fun (r : Request.t) -> r.Request.utterance)
      (Traffic.generate ~rng:(Genie_util.Rng.create seed) ~utterances:utterances 400)
  in
  Alcotest.(check (list string)) "deterministic" (gen 5) (gen 5);
  let drawn = gen 5 in
  List.iter
    (fun u -> Alcotest.(check bool) "from corpus" true (List.mem u utterances))
    drawn;
  (* Zipf skew: the most popular utterance dominates its uniform share *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun u -> Hashtbl.replace counts u (1 + Option.value ~default:0 (Hashtbl.find_opt counts u)))
    drawn;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  let uniform_share = 400 / List.length utterances in
  Alcotest.(check bool) "zipfian head" true (top > 2 * uniform_share);
  (* deadlines ride along *)
  let with_deadline =
    Traffic.generate ~deadline_ms:7.5
      ~rng:(Genie_util.Rng.create 5)
      ~utterances:utterances 3
  in
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check (option (float 0.0))) "deadline attached" (Some 7.5e6)
        r.Request.deadline_ns)
    with_deadline

(* --- server end to end ---------------------------------------------------------------- *)

let test_server_execute_and_stats () =
  let model = Lazy.force model in
  let server = Server.create ~lib ~model ~cache_capacity:4 () in
  let reqs =
    List.mapi
      (fun i u -> Request.make ~execute:true ~ticks:2 ~id:i u)
      [ "tweet alice"; "tweet alice"; "get a cat picture" ]
  in
  let rs = Server.run_batch server reqs in
  Alcotest.(check int) "three responses" 3 (List.length rs);
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check bool) "parsed" true (Option.is_some r.Response.program);
      Alcotest.(check string) "status ok" "ok"
        (Response.status_to_string r.Response.status);
      Alcotest.(check (option string)) "no error" None r.Response.error;
      Alcotest.(check bool) "timing positive" true (r.Response.timing.Response.total_ns > 0.0))
    rs;
  (* the tweet action ran: side effects observed *)
  Alcotest.(check bool) "side effects" true
    (List.exists (fun (r : Response.t) -> r.Response.side_effects > 0) rs);
  let s = Server.stats server in
  Alcotest.(check int) "requests" 3 s.Server.requests;
  Alcotest.(check int) "exec runs" 3 s.Server.exec_runs;
  Alcotest.(check int) "one hit" 1 s.Server.cache_hits;
  Alcotest.(check int) "two misses" 2 s.Server.cache_misses;
  Alcotest.(check bool) "throughput measured" true (s.Server.throughput_rps > 0.0);
  Alcotest.(check bool) "p50 measured" true (s.Server.p50_ms > 0.0);
  check_invariant server

(* --- compiled execution path -------------------------------------------------------- *)

(* Compiled execution (bytecode + compiled-program cache) must be
   observationally identical to the tree-walking interpreter: same statuses,
   same notification/side-effect counts, same errors — sequential or pooled,
   at every worker count. *)
let test_compiled_matches_interpreted () =
  let model = Lazy.force model in
  let requests = exec_requests 40 41 in
  let run ~workers ~compiled () =
    let server = Server.create ~lib ~model ~workers ~queue_capacity:16 ~compiled () in
    let rs = Server.run_batch server requests in
    check_invariant server;
    let s = Server.stats server in
    Server.shutdown server;
    (List.map exec_digest rs, s)
  in
  List.iter
    (fun workers ->
      let interp, si = run ~workers ~compiled:false () in
      let comp, sc = run ~workers ~compiled:true () in
      Alcotest.(check (list string))
        (Printf.sprintf "compiled = interpreted at %d workers" workers)
        interp comp;
      (* the interpreter path never touches the compiled-program cache *)
      Alcotest.(check int) "interpreter: no compile lookups" 0
        (si.Server.compile_hits + si.Server.compile_misses);
      (* the compiled path looks up once per execution and compiles only
         distinct programs *)
      Alcotest.(check int) "one compile lookup per execution" sc.Server.exec_runs
        (sc.Server.compile_hits + sc.Server.compile_misses);
      Alcotest.(check bool) "distinct programs compiled once" true
        (sc.Server.compile_misses <= List.length utterances);
      Alcotest.(check bool) "cache hits on repeats" true
        (sc.Server.compile_hits > 0))
    [ 0; 1; 2; 4 ]

(* The same equivalence must survive the robustness layer: a seeded fault
   schedule (crashes + drops + retries) makes the same decisions whether the
   engines execute compiled or interpreted, so responses stay identical. *)
let test_compiled_matches_interpreted_under_faults () =
  let model = Lazy.force model in
  let requests = exec_requests 40 43 in
  let run ~workers ~compiled () =
    let server =
      Server.create ~lib ~model ~workers ~queue_capacity:8
        ~fault:(Lazy.force mixed_fault) ~max_retries:3 ~retry_backoff_ms:0.01
        ~compiled ()
    in
    let rs = Server.run_batch server requests in
    check_invariant server;
    Server.shutdown server;
    List.map exec_digest rs
  in
  List.iter
    (fun workers ->
      Alcotest.(check (list string))
        (Printf.sprintf "compiled = interpreted under faults at %d workers" workers)
        (run ~workers ~compiled:false ())
        (run ~workers ~compiled:true ()))
    [ 0; 1; 2; 4 ]

(* Tiny compiled-program cache: constant eviction, still byte-identical. *)
let test_compiled_cache_thrash_identical () =
  let model = Lazy.force model in
  let requests = exec_requests 30 47 in
  let run ~compile_cache_capacity () =
    let server = Server.create ~lib ~model ~compile_cache_capacity () in
    let rs = Server.run_batch server requests in
    let s = Server.stats server in
    Server.shutdown server;
    (List.map exec_digest rs, s)
  in
  let roomy, _ = run ~compile_cache_capacity:64 () in
  let tight, st = run ~compile_cache_capacity:1 () in
  let off, s0 = run ~compile_cache_capacity:0 () in
  Alcotest.(check (list string)) "capacity 1 = capacity 64" roomy tight;
  Alcotest.(check (list string)) "capacity 0 = capacity 64" roomy off;
  Alcotest.(check bool) "capacity 1 evicts" true (st.Server.compile_evictions > 0);
  Alcotest.(check int) "capacity 0 caches nothing" 0 s0.Server.compile_entries

(* Execution is a function of the request alone: a seeded stream of executed
   requests, in any arrival order, compiled or interpreted, at any worker
   count, gives every request id the response the sequential interpreter
   gives it in stream order. *)
let qcheck_exec_worker_invariant =
  let print (seed, order) = Printf.sprintf "traffic seed %d, order seed %d" seed order in
  QCheck.Test.make
    ~name:"executed responses: same per id at 0/1/2/4 workers, any order, both paths"
    ~count:10
    (QCheck.make ~print QCheck.Gen.(pair (int_range 1 100_000) (int_range 1 100_000)))
    (fun (seed, order) ->
      let model = Lazy.force model in
      let requests = exec_requests 24 seed in
      let run ~workers ~compiled reqs =
        let server = Server.create ~lib ~model ~workers ~queue_capacity:16 ~compiled () in
        let rs = Server.run_batch server reqs in
        Server.shutdown server;
        List.map cross_path_exec_digest rs
      in
      let expected = run ~workers:0 ~compiled:false requests in
      let shuffled = Genie_util.Rng.shuffle (Genie_util.Rng.create order) requests in
      List.for_all
        (fun (workers, compiled) ->
          let got = run ~workers ~compiled shuffled in
          got = expected
          || QCheck.Test.fail_reportf "%d workers, compiled=%b:\n%s\nexpected:\n%s" workers
               compiled (String.concat "\n" got) (String.concat "\n" expected))
        (List.concat_map (fun w -> [ (w, false); (w, true) ]) [ 0; 1; 2; 4 ]))

(* Regression: the serve hot path must stringify each distinct program once
   (memoized next to the cached parse), not once per request — cached
   requests, responses and compiled-cache keys all reuse that text. *)
let test_no_restringify_on_cache_hit () =
  let model = Lazy.force model in
  let server = Server.create ~lib ~model () in
  (* warm every utterance: parse-cache and compile-cache misses happen here *)
  List.iteri
    (fun i u -> ignore (Server.handle server (Request.make ~execute:true ~id:i u)))
    utterances;
  let before = Printer.program_print_count () in
  let reqs =
    List.mapi
      (fun i u -> Request.make ~execute:true ~id:(100 + i) u)
      (utterances @ utterances @ utterances)
  in
  let rs = Server.run_batch server reqs in
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check string) "served ok" "ok"
        (Response.status_to_string r.Response.status);
      Alcotest.(check bool) "from cache" true r.Response.from_cache)
    rs;
  Alcotest.(check int) "zero re-stringifications across cached requests" 0
    (Printer.program_print_count () - before);
  Server.shutdown server

(* --- one admission rule at every worker count ------------------------------------ *)

(* Admitted requests are served and remembered before the excess is
   handled, so an over-budget repeat of a key that an admitted request of
   the same batch parsed is answered degraded, not shed — at 0 workers and
   through the pool alike. *)
let test_admission_rule_worker_invariant () =
  let model = Lazy.force model in
  List.iter
    (fun workers ->
      let server =
        Server.create ~lib ~model ~workers ~queue_capacity:8
          ~admission_capacity:1 ()
      in
      let rs =
        Server.run_batch server
          [ Request.make ~id:0 "tweet alice"; Request.make ~id:1 "tweet alice" ]
      in
      check_invariant server;
      let s = Server.stats server in
      Server.shutdown server;
      let label what = Printf.sprintf "%s at %d workers" what workers in
      match rs with
      | [ first; repeat ] ->
          Alcotest.(check string) (label "admitted ok") "ok"
            (Response.status_to_string first.Response.status);
          Alcotest.(check bool) (label "admitted not degraded") false
            first.Response.degraded;
          Alcotest.(check string) (label "repeat ok") "ok"
            (Response.status_to_string repeat.Response.status);
          Alcotest.(check bool) (label "repeat degraded") true
            repeat.Response.degraded;
          Alcotest.(check (option string)) (label "repeat = admitted parse")
            first.Response.program_text repeat.Response.program_text;
          Alcotest.(check int) (label "degraded counter") 1 s.Server.degraded;
          Alcotest.(check int) (label "nothing shed") 0 s.Server.shed
      | _ -> Alcotest.fail "expected two responses")
    [ 0; 2 ]

let suite =
  [ Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity 1" `Quick test_lru_capacity_one;
    Alcotest.test_case "lru capacity 0" `Quick test_lru_capacity_zero;
    Alcotest.test_case "cached = cold parse" `Quick test_cached_response_identical;
    Alcotest.test_case "chan fifo and close" `Quick test_chan_fifo_and_close;
    Alcotest.test_case "chan try_push" `Quick test_chan_try_push;
    Alcotest.test_case "chan try_push capacity boundary" `Quick
      test_chan_try_push_capacity_boundary;
    Alcotest.test_case "cache eviction under alternating keys" `Quick
      test_cache_eviction_under_alternating_keys;
    Alcotest.test_case "concurrent same-key coalesces" `Quick
      test_concurrent_same_key_coalesces;
    Alcotest.test_case "pool roundtrip" `Quick test_pool_roundtrip;
    Alcotest.test_case "pool exception surfaces" `Quick test_pool_handler_exception_surfaces;
    Alcotest.test_case "pool drain_results pairs failures" `Quick
      test_pool_drain_results_pairs_failures;
    Alcotest.test_case "pool fault hook drops" `Quick test_pool_fault_hook_drops;
    Alcotest.test_case "pooled = sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "fault spec roundtrip" `Quick test_fault_spec_roundtrip;
    Alcotest.test_case "fault decisions deterministic" `Quick
      test_fault_decisions_deterministic;
    Alcotest.test_case "backoff deterministic + bounded" `Quick
      test_backoff_deterministic_and_bounded;
    Alcotest.test_case "crash retried and answered" `Quick
      test_crash_retried_and_answered;
    Alcotest.test_case "crash exhausts retries" `Quick test_crash_exhausts_retries;
    Alcotest.test_case "drop retried and answered" `Quick
      test_drop_retried_and_answered;
    Alcotest.test_case "drop exhausts retries" `Quick test_drop_exhausts_retries;
    Alcotest.test_case "deadline timeout keeps timings" `Quick
      test_deadline_timeout_with_timings;
    Alcotest.test_case "queue full sheds" `Quick test_queue_full_sheds;
    Alcotest.test_case "saturated pool degrades to cache" `Quick
      test_saturated_pool_degrades_to_cache;
    Alcotest.test_case "fault schedule repeatable" `Quick
      test_fault_schedule_repeatable;
    Alcotest.test_case "pooled faults account for all" `Quick
      test_pooled_faults_account_for_every_request;
    Alcotest.test_case "pooled admission deterministic" `Quick
      test_pooled_admission_deterministic;
    Alcotest.test_case "admission rule worker-invariant" `Quick
      test_admission_rule_worker_invariant;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "metrics concurrent" `Quick test_metrics_concurrent_records;
    Alcotest.test_case "traffic zipfian" `Quick test_traffic_deterministic_and_zipfian;
    Alcotest.test_case "server execute + stats" `Quick test_server_execute_and_stats;
    Alcotest.test_case "compiled = interpreted (0/2/4 workers)" `Quick
      test_compiled_matches_interpreted;
    Alcotest.test_case "compiled = interpreted under faults" `Quick
      test_compiled_matches_interpreted_under_faults;
    QCheck_alcotest.to_alcotest qcheck_exec_worker_invariant;
    Alcotest.test_case "compiled cache thrash identical" `Quick
      test_compiled_cache_thrash_identical;
    Alcotest.test_case "no re-stringify on cache hit" `Quick
      test_no_restringify_on_cache_hit ]
