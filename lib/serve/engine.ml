(* The per-worker request engine.

   Thread-safety inventory of the shared model: a seq2seq [Model.t] handle
   carries per-handle mutable scratch (its tensor arena) that is unsafe to
   share across domains, so each engine [Model.fork]s its own handle; the
   heavy read-only state (weights) stays physically shared behind the
   forks. A trained aligner is never written, so its fork is the shared
   handle itself.

   Fault injection: an engine created with a fault raises
   [Fault.Injected_crash] out of [process] for scheduled (id, attempt)
   pairs -- the one exception to "process never raises" -- and adds the
   schedule's injected latency to scheduled requests' decode stage. Injected
   latency lives on a virtual clock by default ([sleep = false]): it is
   added to the reported timings and counted against the request's deadline
   without spending wall-clock time, so deadline outcomes are exact and the
   test suite stays fast. *)

open Genie_thingtalk
open Genie_conc
module Lru = Genie_util.Lru
module Model = Genie_parser_model.Model
module Tracer = Genie_observe.Tracer
module Span = Genie_observe.Span
module Probe = Genie_observe.Probe

(* A parse-cache entry memoizes the canonical printed form alongside the
   prediction: computed once per parse miss, it serves every later response
   (no re-stringification on the hot path) and keys the compiled-program
   cache. Aligner predictions are canonicalized by default, so the printed
   text is the canonical form. *)
type cached = { pred : Model.prediction; text : string option }

type t = {
  lib : Schema.Library.t;
  mutable model : Model.t;  (* own fork: private scratch, if the backend has any *)
  cache : cached Lru.t;
  env : Genie_runtime.Exec.env;
  metrics : Metrics.t;
  fault : Fault.t;
  worker : int;
  tracer : Tracer.t;  (* records into slot [worker] *)
  compiled : bool;
  ccache : Genie_runtime.Compile_cache.t;  (* worker-private, like [cache] *)
}

let create ~lib ~model ~cache_capacity ~metrics ~worker ~seed
    ?(fault = Fault.none) ?(tracer = Tracer.disabled) ?(compiled = true)
    ?compile_cache_capacity () =
  let model = model.Model.fork () in
  let ccache_capacity = Option.value compile_cache_capacity ~default:cache_capacity in
  { lib;
    model;
    cache = Lru.create ~capacity:cache_capacity;
    env = Genie_runtime.Exec.create ~seed lib;
    metrics;
    fault;
    worker;
    tracer;
    compiled;
    ccache = Genie_runtime.Compile_cache.create ~capacity:ccache_capacity }

(* Execute through the compiler: cached compiled programs skip typecheck and
   lowering entirely, keyed on the memoized canonical text. Compilation
   errors propagate exactly like interpreter errors (byte-identical
   messages, nothing cached), so the caller's handler is unchanged. *)
let exec_program t ~probe ~compiled_now ~text ~ticks p =
  if not t.compiled then Genie_runtime.Exec.run ~ticks t.env p
  else begin
    let key =
      match text with Some s -> s | None -> Printer.program_to_string p
    in
    let c =
      match Genie_runtime.Compile_cache.find t.ccache key with
      | Some c ->
          Probe.incr probe Probe.Compile_hit;
          c
      | None ->
          Probe.incr probe Probe.Compile_miss;
          let c = Genie_runtime.Compile.compile t.lib p in
          Probe.incr probe Probe.Compile;
          Genie_runtime.Compile_cache.add t.ccache key c;
          compiled_now := true;
          c
    in
    Genie_runtime.Compile.run ~ticks t.env c
  end

let now_ns () = Unix.gettimeofday () *. 1e9

let process ?(attempt = 0) t (req : Request.t) : Response.t =
  let id = req.Request.id in
  let probe = Metrics.probe t.metrics in
  (* The crash decision comes before any real work — in particular before
     the cache lookup — so a schedule's outcomes are a pure function of
     (seed, id, attempt): independent of cache state, batch composition, and
     worker count. A crash mid-cache-hit is as realistic as one mid-decode,
     and determinism across serving paths is worth far more. *)
  if Fault.crashes t.fault ~id ~attempt then begin
    Probe.incr probe Probe.Crash;
    if Tracer.enabled t.tracer then
      Tracer.record t.tracer ~slot:t.worker
        (Span.v ~seed:(Tracer.seed t.tracer) ~request:id ~attempt ~seq:0
           ~start_ns:(now_ns ()) ~dur_ns:0.0 "crash");
    raise Fault.Injected_crash
  end;
  let t0 = now_ns () in
  let key = Request.cache_key req.Request.utterance in
  let tokens = Genie_util.Tok.tokenize req.Request.utterance in
  let t1 = now_ns () in
  Probe.incr probe Probe.Tokenize;
  (* injected latency not actually slept accumulates on a virtual clock that
     shifts every later stage boundary *)
  let skew = ref 0.0 in
  let injected = ref false in
  (* decode sub-spans hang off the parse span, whose id is a pure function
     of its coordinates — computable before the span itself is recorded *)
  let scope =
    if Tracer.enabled t.tracer then
      Tracer.scope t.tracer ~slot:t.worker ~request:id ~attempt
        ~parent:
          (Span.id_of ~seed:(Tracer.seed t.tracer) ~request:id ~attempt ~seq:3
             ~name:"parse")
    else None
  in
  let entry, from_cache, parse_error =
    match Lru.find t.cache key with
    | Some e ->
        Probe.incr probe Probe.Cache_hit;
        (e, true, None)
    | None -> (
        Probe.incr probe Probe.Cache_miss;
        let inject = Fault.latency_ns t.fault ~id in
        if inject > 0.0 then begin
          injected := true;
          if (Fault.spec t.fault).Fault.sleep then Unix.sleepf (inject /. 1e9)
          else skew := !skew +. inject
        end;
        Probe.incr probe Probe.Parse;
        match t.model.Model.predict ?scope tokens with
        | p ->
            (* print once per distinct parse; every response (and the
               compiled-program cache key) reuses this string *)
            let e = { pred = p; text = Option.map Printer.program_to_string p.Model.program } in
            Lru.add t.cache key e;
            (e, false, None)
        | exception e ->
            ({ pred = Model.no_prediction; text = None }, false, Some (Printexc.to_string e)))
  in
  let pred = entry.pred in
  let t2 = now_ns () +. !skew in
  (* Spans are emitted after the fact from the stage boundaries already
     taken, so tracing adds no clock reads to the request path. *)
  let compiled_now = ref false in
  let trace ~t3 ~exec_ran ~status =
    if Tracer.enabled t.tracer then begin
      let seed = Tracer.seed t.tracer in
      let emit sp = Tracer.record t.tracer ~slot:t.worker sp in
      let root =
        Span.v ~seed ~request:id ~attempt ~seq:0
          ~attrs:[ ("status", Response.status_to_string status) ]
          ~start_ns:t0 ~dur_ns:(t3 -. t0) "request"
      in
      emit root;
      emit
        (Span.v ~seed ~request:id ~attempt ~seq:1 ~parent:root.Span.id
           ~start_ns:t0 ~dur_ns:(t1 -. t0) "tokenize");
      emit
        (Span.v ~seed ~request:id ~attempt ~seq:2 ~parent:root.Span.id
           ~attrs:[ ("cache", if from_cache then "hit" else "miss") ]
           ~start_ns:t1 ~dur_ns:0.0 "cache");
      if not from_cache then
        emit
          (Span.v ~seed ~request:id ~attempt ~seq:3 ~parent:root.Span.id
             ~attrs:(if !injected then [ ("injected", "true") ] else [])
             ~start_ns:t1 ~dur_ns:(t2 -. t1) "parse");
      if exec_ran then begin
        let exec_sp =
          Span.v ~seed ~request:id ~attempt ~seq:4 ~parent:root.Span.id
            ~start_ns:t2 ~dur_ns:(t3 -. t2) "exec"
        in
        emit exec_sp;
        (* a compile-cache miss lowered the program inside the exec stage *)
        if !compiled_now then
          emit
            (Span.v ~seed ~request:id ~attempt ~seq:5 ~parent:exec_sp.Span.id
               ~start_ns:t2 ~dur_ns:0.0 "compile")
      end
    end
  in
  let past_deadline at =
    match req.Request.deadline_ns with
    | Some d -> at -. t0 > d
    | None -> false
  in
  (* Cache hits always answer: the deadline guards the expensive decode and
     execute paths, and a hit costs neither. *)
  if (not from_cache) && past_deadline t2 then begin
    Metrics.record t.metrics ~outcome:`Timeout ~latency_ns:(t2 -. t0) ();
    trace ~t3:t2 ~exec_ran:false ~status:Response.Timeout;
    { Response.id;
      utterance = req.Request.utterance;
      status = Response.Timeout;
      program = None;
      program_text = None;
      nn_tokens = [];
      score = 0.0;
      from_cache = false;
      degraded = false;
      attempts = attempt + 1;
      worker = t.worker;
      notifications = 0;
      side_effects = 0;
      error = None;
      timing =
        { Response.tokenize_ns = t1 -. t0;
          parse_ns = t2 -. t1;
          exec_ns = 0.0;
          total_ns = t2 -. t0 } }
  end
  else begin
    let notifications, side_effects, exec_error, exec_ran =
      match (req.Request.execute, pred.Model.program) with
      | true, Some p -> (
          Probe.incr probe Probe.Exec;
          match
            exec_program t ~probe ~compiled_now ~text:entry.text
              ~ticks:req.Request.ticks p
          with
          | ns, effects ->
              Metrics.incr_exec_runs t.metrics;
              (List.length ns, List.length effects, None, true)
          | exception e -> (0, 0, Some (Printexc.to_string e), true))
      | _ -> (0, 0, None, false)
    in
    let t3 = now_ns () +. !skew in
    let error =
      match parse_error with Some _ -> parse_error | None -> exec_error
    in
    let timed_out = (not from_cache) && past_deadline t3 in
    let status =
      if timed_out then Response.Timeout
      else if Option.is_some error then Response.Error
      else if Option.is_none pred.Model.program then Response.No_parse
      else Response.Ok
    in
    let outcome =
      match status with
      | Response.Timeout -> `Timeout
      | Response.Error -> `Error
      | Response.No_parse -> `No_parse
      | _ -> `Ok
    in
    Metrics.record t.metrics ~outcome ~latency_ns:(t3 -. t0) ();
    trace ~t3 ~exec_ran ~status;
    { Response.id;
      utterance = req.Request.utterance;
      status;
      program = (if timed_out then None else pred.Model.program);
      program_text = (if timed_out then None else entry.text);
      nn_tokens = (if timed_out then [] else pred.Model.nn_tokens);
      score = pred.Model.score;
      from_cache;
      degraded = false;
      attempts = attempt + 1;
      worker = t.worker;
      notifications;
      side_effects;
      error;
      timing =
        { Response.tokenize_ns = t1 -. t0;
          parse_ns = t2 -. t1;
          exec_ns = t3 -. t2;
          total_ns = t3 -. t0 } }
  end

(* Hot-swap: replace the model (with the usual private fork) and clear the
   parse cache, whose entries were computed by the old model. The caller —
   Server.swap_model, between run_batch calls — must guarantee no request
   is in flight on this engine; the pool's submit channel then publishes
   the write to the worker domain before its next job. The
   compiled-program cache survives: bytecode is a pure function of the
   canonical program text, not of the model that produced it. *)
let swap_model t model =
  t.model <- model.Model.fork ();
  Lru.clear t.cache

let cache_stats t = Lru.stats t.cache
let compile_cache_stats t = Genie_runtime.Compile_cache.stats t.ccache
let worker t = t.worker
