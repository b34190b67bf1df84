(** One worker's single-request processing path: tokenize -> parse-cache
    lookup -> model decode on a miss -> optional runtime execution, with
    per-stage timing, deadline enforcement and fault-injection hooks.

    An engine owns everything a request touches that is not thread-safe: a
    private LRU parse cache and a private {!Genie_parser_model.Model.fork}
    of the (otherwise shared, read-only) model whose predict-time scratch
    is per-fork. Its {!Genie_runtime.Exec.env} is only read: each execution
    runs in its own state, so its result depends on the request alone, not
    on what the engine ran before. Each engine must only ever be driven
    from one domain at a time; metrics are shared and atomic. *)

open Genie_thingtalk

type t

val create :
  lib:Schema.Library.t ->
  model:Genie_parser_model.Model.t ->
  cache_capacity:int ->
  metrics:Metrics.t ->
  worker:int ->
  seed:int ->
  ?fault:Genie_conc.Fault.t ->
  ?tracer:Genie_observe.Tracer.t ->
  ?compiled:bool ->
  ?compile_cache_capacity:int ->
  unit ->
  t
(** [seed] seeds the engine's runtime environment; a server gives every
    engine the same seed.
    [fault] (default {!Genie_conc.Fault.none}) is the engine's injection schedule.
    [tracer] (default {!Genie_observe.Tracer.disabled}) receives per-stage
    spans in slot [worker]; always-on {!Genie_observe.Probe} counters on
    [metrics] are bumped regardless. [compiled] (default [true]) executes
    programs through {!Genie_runtime.Compile} with a worker-private LRU of
    compiled programs keyed on the memoized canonical text
    ([compile_cache_capacity], default [cache_capacity]); responses are
    byte-identical to interpreted execution (docs/compilation.md). *)

val process : ?attempt:int -> t -> Request.t -> Response.t
(** Serves one request: parser and runtime exceptions are absorbed into the
    response ([status = Error]); a request past its {!Request.deadline_ns}
    answers [Timeout] with its stage timings still populated (cache hits are
    exempt — they cost nothing). A parse-cache miss calls
    {!Genie_parser_model.Model.predict} inside the request's own timing, so
    [timing.parse_ns] and [timing.total_ns] include the model. The {e only}
    exception [process] raises is {!Genie_conc.Fault.Injected_crash}, on
    schedule, for the retry layer to catch; [attempt] (default 0) is the
    retry ordinal the schedule consults, echoed back as
    [response.attempts = attempt + 1]. *)

val swap_model : t -> Genie_parser_model.Model.t -> unit
(** Atomically (from this engine's point of view: it must not be processing
    a request, which {!Server.swap_model} guarantees by running between
    batches) replaces the model — taking the usual private fork — and
    clears the parse cache, whose entries belong to the old model. The
    compiled-program cache is kept: bytecode depends only on the canonical
    program text. *)

val cache_stats : t -> Genie_util.Lru.stats

val compile_cache_stats : t -> Genie_runtime.Compile_cache.stats
(** All zeros when the engine was created with [compiled:false]. *)

val worker : t -> int
