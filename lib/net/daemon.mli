(** The network serving daemon: a long-lived TCP front end over
    {!Genie_serve.Server}.

    One single-threaded [Unix.select] event loop owns the listening socket,
    every client connection, and the {!Batcher} admission queue; all
    parsing work still happens inside the server's worker pool. The loop
    - accepts persistent connections and reads length-prefixed frames
      ({!Frame}) into per-connection incremental decoders,
    - admits decoded requests into the bounded queue (answering [Shed] /
      draining refusals inline with an [overloaded] response),
    - after each round of reads, takes at most [batch_max] queued requests
      and serves them with {!Genie_serve.Server.run_batch}, which runs each
      request through its own {!Genie_serve.Engine.process} call (so a
      response's [rs_total_ns] includes its model decode). An idle daemon
      dispatches a request in the turn that reads it; requests that arrive
      while a batch is being served go out together in the next one,
    - writes each response frame back on the connection that sent the
      request (client request ids are scoped per connection; the daemon
      renumbers internally and restores the client's id on the way out).

    Graceful drain: {!request_drain} (also installed as the SIGTERM/SIGINT
    handler by {!install_signal_handlers}, and triggered remotely by a
    [Drain] frame) makes the loop stop accepting connections and admitting
    requests, dispatch everything still queued, flush the response frames,
    close every socket, and return from {!run}. Every admitted request is answered exactly once;
    requests arriving after drain begins are refused, never dropped
    silently.

    Hot-swap: {!request_reload} (also installed as the SIGHUP handler, and
    triggered remotely by a [Reload] frame) makes the loop ask its reload
    source for a fresh model and {!Genie_serve.Server.swap_model} it in,
    strictly between micro-batch dispatches — no request is ever answered
    by a half-loaded model, and every response comes from exactly the model
    that was active when its batch dispatched (docs/checkpointing.md).
    Reloads arriving while draining are ignored.

    Observability: the daemon bumps the [net.*] stages on the server's
    always-on {!Genie_observe.Probe} (so they appear in
    {!Genie_serve.Server.metrics_snapshot}[.stages]) and, when given a
    tracer, records [net.batch] spans with [net.queue] children carrying
    each request's queue wait. *)

type config = {
  host : string;  (** interface to bind, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  batch_max : int;  (** max requests per micro-batch *)
  queue_capacity : int;  (** admission queue bound; beyond it, shed *)
  max_connections : int;  (** concurrent connections; beyond it, refuse *)
}

val default_config : config
(** [127.0.0.1:0], batch_max 64, capacity 1024, 128 connections. *)

type t

val create :
  ?tracer:Genie_observe.Tracer.t ->
  ?tracer_slot:int ->
  ?reload:(int -> Genie_parser_model.Model.t option) ->
  ?on_swap:(old_digest:string -> new_digest:string -> unit) ->
  server:Genie_serve.Server.t ->
  config ->
  t
(** Binds and listens immediately — {!port} is valid as soon as [create]
    returns, so a test can read the ephemeral port before spawning {!run}
    on another domain. [tracer_slot] (default 0) is the ring slot the
    daemon's spans are recorded into; pass the coordinator slot of the
    server's tracer.

    [reload] is the hot-swap model source, called on the event-loop domain
    with the 1-based reload ordinal; returning [None] (or omitting
    [reload]) counts the request as a failure and keeps the active model.
    The CLI's source re-reads the configured checkpoint path and fails
    closed — a corrupt, truncated or missing file returns [None], bumping
    [reload_failures] while the active model keeps serving. [on_swap] is
    notified after each committed swap — the CLI uses it to log the digest
    transition. *)

val port : t -> int
(** The bound port (resolves port 0 to the kernel's choice). *)

val request_drain : t -> unit
(** Ask the loop to drain and exit. Async-signal-safe and domain-safe (one
    atomic store); the loop notices on its next wakeup. Idempotent. *)

val request_reload : t -> unit
(** Ask the loop to hot-swap in a fresh model from its reload source at the
    next between-batches point. Async-signal-safe and domain-safe (one
    atomic store). Coalescing: requests arriving before the loop services
    the flag perform one reload. *)

val install_signal_handlers : t -> unit
(** Routes SIGTERM and SIGINT to {!request_drain}, SIGHUP to
    {!request_reload}. *)

val run : t -> unit
(** The blocking event loop. Returns after a drain completes: every
    admitted request answered, every connection closed, listening socket
    closed. Ignores SIGPIPE for the duration (dead clients surface as write
    errors and are counted, not fatal). *)

type stats = {
  connections : int;  (** accepted over the daemon's lifetime *)
  refused_connections : int;  (** closed immediately at [max_connections] *)
  frames_in : int;
  frames_out : int;
  requests : int;  (** request frames decoded *)
  responses : int;  (** response frames written successfully *)
  shed : int;  (** refused: admission queue full *)
  refused_draining : int;  (** refused: arrived after drain began *)
  protocol_errors : int;  (** connections killed by framing/codec errors *)
  dropped_responses : int;
      (** responses whose connection died before the write *)
  batches : int;
  max_batch : int;
  batch_histogram : (int * int) list;  (** (batch size, count) ascending *)
  queue_wait_mean_ms : float;
  queue_wait_p50_ms : float;
  queue_wait_p95_ms : float;
  queue_wait_p99_ms : float;
  reloads : int;  (** reload requests that committed a model swap *)
  reload_noops : int;  (** reloads whose model matched the active digest *)
  reload_failures : int;
      (** reloads with no source, or whose source returned [None] *)
  model_digest : string;  (** the active model's {!Genie_parser_model.Model.digest} *)
  model_kind : string;  (** ["aligner"] / ["seq2seq"] — which backend is live *)
  drained : bool;  (** true once {!run} has completed a graceful drain *)
}

val stats : t -> stats
(** Safe to call from another domain only after {!run} returns (the loop
    owns the counters); the [Stats_request] frame is the live remote way. *)

val stats_json : t -> Genie_util.Json_lite.t
(** {!stats} plus the underlying server's stats, as one JSON object — also
    the payload answered to a [Stats_request] frame. *)
