(* The serving facade: engines + optional pool + stats aggregation, wrapped
   in the robustness policy — admission control, retry with backoff, and
   cache-only graceful degradation. Every worker count serves through the
   same loop; only where an attempt runs differs (inline at 0/1 workers, one
   pool job per request at >= 2).

   Admission control is per batch: each worker accepts at most
   [admission_capacity] requests of a [run_batch] call (the whole batch
   "arrives at once", so anything beyond a worker's inbox budget is excess
   load). The admitted requests are served first and their parses
   remembered; then an excess request is answered from the coordinator's
   degraded cache when its utterance has been parsed before, and shed with
   an explicit [Overloaded] response otherwise — never blocked. Because the
   decision depends only on the batch order and the key -> worker shard map,
   shedding is deterministic.

   Transient failures (injected crashes, injected message drops, any
   exception a worker raises) are retried in rounds with exponential
   backoff and deterministic jitter up to [max_retries] times; a request
   that exhausts its retries gets an [Error] response. Either way every
   submitted request resolves to exactly one response and exactly one
   metrics outcome. *)

open Genie_thingtalk
open Genie_conc
module Lru = Genie_util.Lru
module Tracer = Genie_observe.Tracer
module Span = Genie_observe.Span
module Probe = Genie_observe.Probe

(* what the degraded path can answer with: a previous successful parse,
   coordinator-owned so no domain sharing *)
type cached_parse = {
  c_program : Ast.program option;
  c_text : string option;
  c_nn : string list;
  c_score : float;
}

(* one attempt at one request: the request and its retry ordinal *)
type job = Request.t * int

type t = {
  engines : Engine.t array;  (* one per worker; exactly one when sequential *)
  pool : (job, Response.t) Pool.t option;
  metrics : Metrics.t;
  workers : int;  (* as configured: 0/1 = sequential *)
  fault : Fault.t;
  admission : int option;  (* per-worker per-batch request budget *)
  degrade : bool;
  max_retries : int;
  retry_backoff_ns : float;
  degraded_cache : cached_parse Lru.t;  (* coordinator-only *)
  tracer : Tracer.t;  (* coordinator records into slot [Array.length engines] *)
  mutable model_digest : string;  (* [Model.digest] of the active model *)
  mutable model_kind : string;  (* [Model.kind] of the active model *)
  mutable swaps : int;  (* hot-swaps committed *)
  mutable last_batch : int * float;  (* requests, wall seconds *)
  mutable total_requests : int;  (* across every run_batch call *)
  mutable total_seconds : float;
  mutable total_batches : int;
}

type stats = {
  workers : int;
  requests : int;
  ok : int;
  errors : int;
  no_parse : int;
  timeouts : int;
  shed : int;
  retries : int;
  degraded : int;
  exec_runs : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  hit_rate : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  last_batch_requests : int;
  last_batch_seconds : float;
  throughput_rps : float;
  batches : int;
  total_seconds : float;
  cumulative_rps : float;
  compile_hits : int;
  compile_misses : int;
  compile_evictions : int;
  compile_entries : int;
  model_digest : string;
  model_kind : string;
  swaps : int;
}

(* One attempt on the engine the request shards to, on that engine's
   domain: the drop check, then [Engine.process]. A dropped message is a
   root-level event like a crash, recorded in the engine's slot. *)
let attempt ~fault ~metrics ~tracer engine ((req, n) : job) =
  let id = req.Request.id in
  if Fault.drops fault ~id ~attempt:n then begin
    Probe.incr (Metrics.probe metrics) Probe.Drop;
    if Tracer.enabled tracer then
      Tracer.record tracer ~slot:(Engine.worker engine)
        (Span.v ~seed:(Tracer.seed tracer) ~request:id ~attempt:n ~seq:0
           ~start_ns:(Tracer.now_ns ()) ~dur_ns:0.0 "drop");
    raise Fault.Injected_drop
  end;
  Engine.process ~attempt:n engine req

let create ~lib ~model ?(cache_capacity = 4096) ?(workers = 0)
    ?(queue_capacity = 64) ?(seed = 0) ?(fault = Fault.none)
    ?admission_capacity ?(degrade = true) ?(max_retries = 2)
    ?(retry_backoff_ms = 1.0) ?(tracer = Tracer.disabled) ?(compiled = true)
    ?compile_cache_capacity () =
  let n_engines = max 1 workers in
  let metrics = Metrics.create () in
  let engines =
    Array.init n_engines (fun w ->
        Engine.create ~lib ~model ~cache_capacity ~metrics ~worker:w
          ~seed ~fault ~tracer ~compiled ?compile_cache_capacity ())
  in
  let pool =
    if workers >= 2 then
      Some
        (Pool.create ~workers ~queue_capacity
           ~handler:(fun w job ->
             attempt ~fault ~metrics ~tracer engines.(w) job)
           ())
    else None
  in
  { engines;
    pool;
    metrics;
    workers;
    fault;
    admission = admission_capacity;
    degrade;
    max_retries;
    retry_backoff_ns = retry_backoff_ms *. 1e6;
    degraded_cache = Lru.create ~capacity:cache_capacity;
    tracer;
    model_digest = model.Genie_parser_model.Model.digest;
    model_kind =
      Genie_parser_model.Model.kind_to_string
        model.Genie_parser_model.Model.kind;
    swaps = 0;
    last_batch = (0, 0.0);
    total_requests = 0;
    total_seconds = 0.0;
    total_batches = 0 }

let of_artifacts ?cache_capacity ?workers ?queue_capacity ?seed ?fault
    ?admission_capacity ?degrade ?max_retries ?retry_backoff_ms ?tracer
    ?compiled ?compile_cache_capacity (a : Genie_core.Pipeline.artifacts) =
  create ~lib:a.Genie_core.Pipeline.lib
    ~model:(Genie_parser_model.Model.of_aligner a.Genie_core.Pipeline.model)
    ?cache_capacity ?workers ?queue_capacity ?seed ?fault ?admission_capacity
    ?degrade ?max_retries ?retry_backoff_ms ?tracer ?compiled
    ?compile_cache_capacity ()

(* Requests shard by cache key, not round-robin: every repetition of an
   utterance lands on the same worker, so per-worker caches need no locks
   and the pooled run does the same total number of aligner decodes as the
   sequential run. *)
let shard t (req : Request.t) =
  let n = Array.length t.engines in
  if n = 1 then 0
  else Hashtbl.hash (Request.cache_key req.Request.utterance) mod n

(* --- degraded / shed / failed responses (coordinator-made) ------------------- *)

(* Coordinator events (shed, degraded, retry, backoff) go to the slot after
   the last worker's; like all spans their identity is structural, so where
   they are buffered never affects the merged trace. *)
let record_coord t ~id ~attempt ~seq ?attrs ?(dur_ns = 0.0) name =
  if Tracer.enabled t.tracer then
    Tracer.record t.tracer ~slot:(Array.length t.engines)
      (Span.v ~seed:(Tracer.seed t.tracer) ~request:id ~attempt ~seq ?attrs
         ~start_ns:(Tracer.now_ns ()) ~dur_ns name)

let overloaded_response t ~worker (req : Request.t) =
  Metrics.incr_shed t.metrics;
  Probe.incr (Metrics.probe t.metrics) Probe.Shed;
  record_coord t ~id:req.Request.id ~attempt:0 ~seq:0 "shed";
  { Response.id = req.Request.id;
    utterance = req.Request.utterance;
    status = Response.Overloaded;
    program = None;
    program_text = None;
    nn_tokens = [];
    score = 0.0;
    from_cache = false;
    degraded = false;
    attempts = 0;
    worker;
    notifications = 0;
    side_effects = 0;
    error = None;
    timing = Response.no_timing }

let degraded_response t ~worker (req : Request.t) c =
  (* a cache-only answer is effectively free: file it as a fastest-bucket
     sample so degraded traffic shows up in the latency profile *)
  Metrics.record t.metrics ~outcome:`Ok ~latency_ns:0.0 ();
  Metrics.incr_degraded t.metrics;
  Probe.incr (Metrics.probe t.metrics) Probe.Degraded;
  record_coord t ~id:req.Request.id ~attempt:0 ~seq:0 "degraded";
  { Response.id = req.Request.id;
    utterance = req.Request.utterance;
    status = Response.Ok;
    program = c.c_program;
    program_text = c.c_text;
    nn_tokens = c.c_nn;
    score = c.c_score;
    from_cache = true;
    degraded = true;
    attempts = 0;
    worker;
    notifications = 0;
    side_effects = 0;
    error = None;
    timing = Response.no_timing }

let failed_response t ~worker (req : Request.t) ~attempts e =
  Metrics.record t.metrics ~outcome:`Error ~latency_ns:0.0 ();
  { Response.id = req.Request.id;
    utterance = req.Request.utterance;
    status = Response.Error;
    program = None;
    program_text = None;
    nn_tokens = [];
    score = 0.0;
    from_cache = false;
    degraded = false;
    attempts;
    worker;
    notifications = 0;
    side_effects = 0;
    error = Some (Printexc.to_string e);
    timing = Response.no_timing }

let degrade_or_shed t (req : Request.t) =
  let key = Request.cache_key req.Request.utterance in
  let worker = shard t req in
  match if t.degrade then Lru.find t.degraded_cache key else None with
  | Some c -> degraded_response t ~worker req c
  | None -> overloaded_response t ~worker req

(* feed the degraded cache with every fresh successful parse *)
let remember t (r : Response.t) =
  if r.Response.status = Response.Ok && not r.Response.degraded then
    Lru.add t.degraded_cache
      (Request.cache_key r.Response.utterance)
      { c_program = r.Response.program;
        c_text = r.Response.program_text;
        c_nn = r.Response.nn_tokens;
        c_score = r.Response.score }

(* --- serving with retries ----------------------------------------------------- *)

(* Counts and traces one retry's backoff and returns it. The backoff span's
   duration is the request's own computed backoff, even though the
   coordinator only sleeps once per round, at the round's maximum. *)
let record_retry t ~id ~attempt =
  Metrics.incr_retries t.metrics;
  Probe.incr (Metrics.probe t.metrics) Probe.Retry;
  record_coord t ~id ~attempt ~seq:8 "retry";
  let ns =
    Fault.backoff_ns t.fault ~base_ns:t.retry_backoff_ns ~id ~attempt
  in
  Probe.incr (Metrics.probe t.metrics) Probe.Backoff;
  record_coord t ~id ~attempt ~seq:9 ~dur_ns:ns "backoff";
  ns

(* Attempts every job once — inline in order at 0/1 workers, as one pool job
   each at >= 2 — pairing each failure with its job. *)
let attempt_round t jobs =
  match t.pool with
  | None ->
      List.map
        (fun ((req, _) as job) ->
          match
            attempt ~fault:t.fault ~metrics:t.metrics ~tracer:t.tracer
              t.engines.(shard t req) job
          with
          | r -> Stdlib.Ok r
          | exception e -> Stdlib.Error (job, e))
        jobs
  | Some pool ->
      List.iter
        (fun ((req, _) as job) -> Pool.submit pool ~worker:(shard t req) job)
        jobs;
      Pool.drain_results pool (List.length jobs)

let by_id =
  List.sort (fun (a : Response.t) (b : Response.t) ->
      compare a.Response.id b.Response.id)

(* Serves admitted requests to completion and remembers their parses.
   Failures are retried in rounds, resubmitted in id order so each worker
   sees a deterministic retry sequence, with one pause per round at the
   round's largest backoff. Returns the responses sorted by id. *)
let serve t reqs =
  let rec rounds answered jobs =
    if jobs = [] then answered
    else begin
      let ok, failed =
        List.partition_map
          (function
            | Stdlib.Ok r -> Either.Left r
            | Stdlib.Error f -> Either.Right f)
          (attempt_round t jobs)
      in
      let failed =
        List.sort
          (fun (((a : Request.t), _), _) (((b : Request.t), _), _) ->
            compare a.Request.id b.Request.id)
          failed
      in
      let give_up, retry =
        List.partition (fun ((_, n), _) -> n >= t.max_retries) failed
      in
      let answered =
        List.map
          (fun ((req, n), e) ->
            failed_response t ~worker:(shard t req) req ~attempts:(n + 1) e)
          give_up
        @ ok @ answered
      in
      let pause =
        List.fold_left
          (fun acc (((req : Request.t), n), _) ->
            Float.max acc (record_retry t ~id:req.Request.id ~attempt:n))
          0.0 retry
      in
      if pause > 0.0 then Unix.sleepf (pause /. 1e9);
      rounds answered (List.map (fun ((req, n), _) -> (req, n + 1)) retry)
    end
  in
  let responses = by_id (rounds [] (List.map (fun r -> (r, 0)) reqs)) in
  List.iter (remember t) responses;
  responses

let handle t req = List.hd (serve t [ req ])

let run_batch t reqs =
  let t0 = Unix.gettimeofday () in
  let credits =
    Array.make (Array.length t.engines)
      (Option.value t.admission ~default:max_int)
  in
  let admitted, excess =
    List.fold_left
      (fun (admitted, excess) req ->
        let w = shard t req in
        if credits.(w) > 0 then begin
          credits.(w) <- credits.(w) - 1;
          (req :: admitted, excess)
        end
        else (admitted, req :: excess))
      ([], []) reqs
  in
  let served = serve t (List.rev admitted) in
  let responses = served @ List.map (degrade_or_shed t) (List.rev excess) in
  let dt = Unix.gettimeofday () -. t0 in
  let n_reqs = List.length reqs in
  t.last_batch <- (n_reqs, dt);
  t.total_requests <- t.total_requests + n_reqs;
  t.total_seconds <- t.total_seconds +. dt;
  t.total_batches <- t.total_batches + 1;
  by_id responses

let stats (t : t) =
  let m = Metrics.snapshot t.metrics in
  let hits, misses, evictions, entries =
    Array.fold_left
      (fun (h, mi, e, n) engine ->
        let s = Engine.cache_stats engine in
        ( h + s.Lru.hits,
          mi + s.Lru.misses,
          e + s.Lru.evictions,
          n + s.Lru.entries ))
      (0, 0, 0, 0) t.engines
  in
  let chits, cmisses, cevictions, centries =
    Array.fold_left
      (fun (h, mi, e, n) engine ->
        let s = Engine.compile_cache_stats engine in
        ( h + s.Genie_runtime.Compile_cache.hits,
          mi + s.Genie_runtime.Compile_cache.misses,
          e + s.Genie_runtime.Compile_cache.evictions,
          n + s.Genie_runtime.Compile_cache.entries ))
      (0, 0, 0, 0) t.engines
  in
  let lookups = hits + misses in
  let n_batch, secs = t.last_batch in
  { workers = t.workers;
    requests = m.Metrics.requests;
    ok = m.Metrics.ok;
    errors = m.Metrics.errors;
    no_parse = m.Metrics.no_parse;
    timeouts = m.Metrics.timeouts;
    shed = m.Metrics.shed;
    retries = m.Metrics.retries;
    degraded = m.Metrics.degraded;
    exec_runs = m.Metrics.exec_runs;
    cache_hits = hits;
    cache_misses = misses;
    cache_evictions = evictions;
    cache_entries = entries;
    hit_rate = (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
    mean_ms = m.Metrics.mean_ms;
    p50_ms = m.Metrics.p50_ms;
    p95_ms = m.Metrics.p95_ms;
    p99_ms = m.Metrics.p99_ms;
    last_batch_requests = n_batch;
    last_batch_seconds = secs;
    throughput_rps =
      (if secs <= 0.0 then 0.0 else float_of_int n_batch /. secs);
    batches = t.total_batches;
    total_seconds = t.total_seconds;
    cumulative_rps =
      (if t.total_seconds <= 0.0 then 0.0
       else float_of_int t.total_requests /. t.total_seconds);
    compile_hits = chits;
    compile_misses = cmisses;
    compile_evictions = cevictions;
    compile_entries = centries;
    model_digest = t.model_digest;
    model_kind = t.model_kind;
    swaps = t.swaps }

(* --- live model hot-swap ------------------------------------------------------ *)

(* Swap in a new model between run_batch calls. run_batch is synchronous and
   the engines are only driven from inside it, so at any call site of
   swap_model there are zero requests in flight: in-flight requests have, by
   construction, finished on the old weights. The swap touches every layer
   that memoizes model output — each engine's model handle and parse cache,
   and the coordinator's degraded cache (its entries are old-model parses
   that the degraded path would otherwise keep serving, mixing models) — and
   nothing that doesn't (compiled-program caches are model-independent).
   Caches invalidate by model digest: a reload that resolves to the
   already-active digest keeps every cache warm and only bumps the
   [swap.noop] probe. *)
let swap_model t (model : Genie_parser_model.Model.t) =
  let d = model.Genie_parser_model.Model.digest in
  let probe = Metrics.probe t.metrics in
  if d = t.model_digest then begin
    Probe.incr probe Probe.Swap_noop;
    `Unchanged d
  end
  else begin
    let old = t.model_digest in
    let t0 = Tracer.now_ns () in
    Array.iter (fun e -> Engine.swap_model e model) t.engines;
    Lru.clear t.degraded_cache;
    Probe.incr probe Probe.Swap_cache_clear;
    t.model_digest <- d;
    t.model_kind <-
      Genie_parser_model.Model.kind_to_string
        model.Genie_parser_model.Model.kind;
    t.swaps <- t.swaps + 1;
    Probe.incr probe Probe.Swap;
    if Tracer.enabled t.tracer then
      Tracer.record t.tracer ~slot:(Array.length t.engines)
        (Span.v ~seed:(Tracer.seed t.tracer) ~request:t.swaps ~attempt:0
           ~seq:10
           ~attrs:[ ("old", old); ("new", d) ]
           ~start_ns:t0
           ~dur_ns:(Tracer.now_ns () -. t0)
           "swap.model");
    `Swapped d
  end

let model_digest (t : t) = t.model_digest
let model_kind (t : t) = t.model_kind

let metrics_snapshot (t : t) = Metrics.snapshot t.metrics
let probe (t : t) = Metrics.probe t.metrics

let workers (t : t) = t.workers

let shutdown (t : t) = match t.pool with Some p -> Pool.shutdown p | None -> ()

let pp_stats fmt s =
  Format.fprintf fmt
    "workers %d  %d req  %.0f req/s  hit-rate %.1f%%  p50 %.2fms  p95 %.2fms  \
     p99 %.2fms  mean %.2fms  timeouts %d  shed %d  retries %d  degraded %d"
    s.workers s.requests s.throughput_rps (100.0 *. s.hit_rate) s.p50_ms
    s.p95_ms s.p99_ms s.mean_ms s.timeouts s.shed s.retries s.degraded;
  if s.compile_misses + s.compile_hits > 0 then
    Format.fprintf fmt "  compile %d/%d hit" s.compile_hits
      (s.compile_hits + s.compile_misses)
