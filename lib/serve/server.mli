(** The serving front end: a parse cache, a pool of worker engines, and
    aggregated statistics, behind a batch request API — wrapped in the
    robustness policy: bounded-queue admission control, retry with
    exponential backoff + deterministic jitter, and cache-only graceful
    degradation under saturation.

    Every worker count serves through one loop: walk the admission credits,
    attempt each admitted request once with {!Engine.process} (one model
    call per parse-cache miss), retry failures in rounds, remember the
    fresh parses, then degrade or shed the excess. Only where an attempt
    runs depends on [workers]: at [workers <= 1] (the default) no domains
    are spawned and attempts run on the calling domain in submission order;
    at [workers >= 2] each attempt is one {!Genie_conc.Pool} job on the
    worker its cache key shards to, so each worker's private cache and
    runtime see a stable partition of the key space and a pooled run
    performs exactly the same set of model decodes as a sequential run.
    The server is polymorphic over {!Genie_parser_model.Model}: aligner and
    seq2seq backends serve through the same engines, caches and swap
    machinery.

    Failure semantics: every submitted request gets exactly one response —
    [Ok], [No_parse], [Timeout] (deadline expired), [Overloaded] (shed at
    admission) or [Error] (exception / retries exhausted) — and lands in
    exactly one of the metrics outcome counters. Under a
    {!Genie_conc.Fault} schedule every decision is a deterministic function
    of the schedule's seed and the request ids. *)

open Genie_thingtalk

type t

type stats = {
  workers : int;
  requests : int;  (** every response issued, shed included *)
  ok : int;
  errors : int;
  no_parse : int;
  timeouts : int;
  shed : int;  (** answered [Overloaded] at admission *)
  retries : int;  (** re-attempts after transient failures *)
  degraded : int;  (** cache-only answers under saturation *)
  exec_runs : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  hit_rate : float;  (** hits / (hits + misses), 0 before any traffic *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  last_batch_requests : int;  (** size of the most recent [run_batch] *)
  last_batch_seconds : float;
  throughput_rps : float;  (** of the most recent [run_batch]; 0 before *)
  batches : int;  (** [run_batch] calls served so far *)
  total_seconds : float;  (** wall time across every [run_batch] call *)
  cumulative_rps : float;
      (** cumulative requests / cumulative elapsed across every [run_batch]
          call — the sustained figure; [throughput_rps] only reflects the
          most recent batch *)
  compile_hits : int;  (** compiled-program cache, summed across workers *)
  compile_misses : int;
  compile_evictions : int;
  compile_entries : int;
  model_digest : string;  (** {!Genie_parser_model.Model.digest} of the active model *)
  model_kind : string;  (** ["aligner"] / ["seq2seq"] — which backend is live *)
  swaps : int;  (** hot-swaps committed over the server's lifetime *)
}

val create :
  lib:Schema.Library.t ->
  model:Genie_parser_model.Model.t ->
  ?cache_capacity:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?seed:int ->
  ?fault:Genie_conc.Fault.t ->
  ?admission_capacity:int ->
  ?degrade:bool ->
  ?max_retries:int ->
  ?retry_backoff_ms:float ->
  ?tracer:Genie_observe.Tracer.t ->
  ?compiled:bool ->
  ?compile_cache_capacity:int ->
  unit ->
  t
(** Defaults: [cache_capacity] 4096 (per worker), [workers] 0 (sequential),
    [queue_capacity] 64 per worker, [seed] 0 (the execution seed, the same
    for every engine, so executed responses do not depend on the worker
    count), [fault] {!Genie_conc.Fault.none},
    [admission_capacity] unlimited, [degrade] true, [max_retries] 2,
    [retry_backoff_ms] 1, [tracer] {!Genie_observe.Tracer.disabled},
    [compiled] true (execute requests run through {!Genie_runtime.Compile}
    with a per-worker compiled-program LRU — byte-identical responses to
    the tree-walking interpreter), [compile_cache_capacity] =
    [cache_capacity].

    [admission_capacity] bounds how many requests each worker accepts per
    {!run_batch} call. Excess requests are answered after the admitted ones
    have been served: from the degraded cache (when [degrade] and the
    utterance was parsed before, in this batch or an earlier one) or shed
    with [Overloaded] — never blocked. The rule is the same at every worker
    count.

    [tracer] receives per-request stage spans from every worker engine plus
    coordinator events (retry, backoff, shed, degraded); create it with
    [slots = max 1 workers + 1] so each domain keeps its own ring. The
    always-on {!Genie_observe.Probe} stage counters on the server's metrics
    are maintained whether or not a tracer is attached. *)

val of_artifacts :
  ?cache_capacity:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?seed:int ->
  ?fault:Genie_conc.Fault.t ->
  ?admission_capacity:int ->
  ?degrade:bool ->
  ?max_retries:int ->
  ?retry_backoff_ms:float ->
  ?tracer:Genie_observe.Tracer.t ->
  ?compiled:bool ->
  ?compile_cache_capacity:int ->
  Genie_core.Pipeline.artifacts ->
  t
(** A server over a trained pipeline's library and parser model (the
    aligner, wrapped with {!Genie_parser_model.Model.of_aligner}). *)

val handle : t -> Request.t -> Response.t
(** {!run_batch} of one request without the admission check: the full
    retry policy, and the parse is remembered for degraded answers. Does
    not count as a batch in {!stats}. Do not interleave with a concurrent
    {!run_batch}. *)

val run_batch : t -> Request.t list -> Response.t list
(** Serves a batch and returns exactly one response per request, sorted by
    request id. Each worker admits up to [admission_capacity] requests in
    batch order; the admitted ones are attempted (inline at [workers <= 1],
    one pool job each otherwise), failures are retried in rounds in id
    order with one pause per round at the round's largest backoff, and the
    fresh parses are remembered before the excess is degraded or shed.
    Also records the batch's wall-clock time for {!stats}'s throughput. *)

val swap_model :
  t ->
  Genie_parser_model.Model.t ->
  [ `Swapped of string | `Unchanged of string ]
(** Atomically swaps in a new model, returning the active model digest.
    Must be called between {!run_batch} calls (the network daemon does so
    from its event loop) — [run_batch] is synchronous, so at any such point
    no request is in flight and in-flight requests have by construction
    finished on the old weights. A genuinely new digest replaces every
    engine's model handle, clears every parse cache {e and} the
    coordinator's degraded cache (all memoize old-model output), bumps the
    [swap.commit] / [swap.cache_invalidate] probes and records a
    [swap.model] span; compiled-program caches survive (bytecode depends
    only on program text). Swapping across backends (aligner to seq2seq or
    back) is the same operation — the digest spaces are distinct, so a
    cross-kind swap always commits. A reload resolving to the
    already-active digest is [`Unchanged]: every cache stays warm and only
    [swap.noop] is bumped. *)

val model_digest : t -> string
(** The active model's digest, as reported in {!stats}. *)

val model_kind : t -> string
(** The active model's kind string, as reported in {!stats}. *)

val stats : t -> stats

val metrics_snapshot : t -> Metrics.snapshot
(** The raw outcome counters, for invariant checks
    ([requests = ok + no_parse + errors + timeouts + shed]). *)

val probe : t -> Genie_observe.Probe.t
(** The server's always-on stage counters. Exposed so front ends layered on
    top of the server (the network daemon) can count their own stages —
    accept, framing, queue, shed — into the same {!Metrics.snapshot}
    [.stages] list the engines feed. *)

val workers : t -> int

val shutdown : t -> unit
(** Joins pool domains, if any. Idempotent; the sequential path is a
    no-op. *)

val pp_stats : Format.formatter -> stats -> unit
