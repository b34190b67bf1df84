(* The TCP front end. One single-threaded select loop owns every socket and
   the admission queue; parsing happens inside the server's worker pool.
   Determinism note: client request ids are scoped per connection, so the
   daemon renumbers admitted requests with a private monotonic id (stable
   admission order) and restores the client's id on the response frame. *)

module Server = Genie_serve.Server
module Response = Genie_serve.Response
module Tracer = Genie_observe.Tracer
module Span = Genie_observe.Span
module Probe = Genie_observe.Probe
module Json = Genie_util.Json_lite

type config = {
  host : string;
  port : int;
  batch_max : int;
  queue_capacity : int;
  max_connections : int;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    batch_max = 64;
    queue_capacity = 1024;
    max_connections = 128 }

type conn = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  mutable alive : bool;  (* fd open *)
  mutable reading : bool;  (* still in the select read set *)
  mutable outstanding : int;  (* admitted requests not yet answered *)
  mutable closing : bool;  (* EOF/Bye seen: close once outstanding = 0 *)
}

type item = { it_conn : conn; it_wr : Codec.wire_request; it_srv_id : int }

type t = {
  config : config;
  server : Server.t;
  tracer : Tracer.t;
  tracer_slot : int;
  probe : Probe.t;
  batcher : item Batcher.t;
  (* the reload source: given the 1-based reload ordinal, produce the model
     to swap in (None = nothing newer available). Runs on the event-loop
     domain, between batches. *)
  reload_source : (int -> Genie_parser_model.Model.t option) option;
  on_swap : (old_digest:string -> new_digest:string -> unit) option;
  mutable listen_fd : Unix.file_descr option;
  bound_port : int;
  mutable conns : conn list;
  drain_flag : bool Atomic.t;
  reload_flag : bool Atomic.t;
  mutable next_srv_id : int;
  mutable batch_ordinal : int;
  (* counters *)
  mutable connections : int;
  mutable refused_connections : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable requests : int;
  mutable responses : int;
  mutable protocol_errors : int;
  mutable dropped_responses : int;
  mutable reloads : int;  (* reload requests that committed a swap *)
  mutable reload_noops : int;  (* reloads resolving to the active digest *)
  mutable reload_failures : int;  (* no source, or the source had nothing *)
  mutable drained : bool;
  mutable finished : bool;
}

let create ?(tracer = Tracer.disabled) ?(tracer_slot = 0) ?reload ?on_swap
    ~server config =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try
     Unix.bind fd addr;
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  { config;
    server;
    tracer;
    tracer_slot;
    probe = Server.probe server;
    batcher =
      Batcher.create ~capacity:config.queue_capacity
        ~batch_max:config.batch_max ();
    reload_source = reload;
    on_swap;
    listen_fd = Some fd;
    bound_port;
    conns = [];
    drain_flag = Atomic.make false;
    reload_flag = Atomic.make false;
    next_srv_id = 0;
    batch_ordinal = 0;
    connections = 0;
    refused_connections = 0;
    frames_in = 0;
    frames_out = 0;
    requests = 0;
    responses = 0;
    protocol_errors = 0;
    dropped_responses = 0;
    reloads = 0;
    reload_noops = 0;
    reload_failures = 0;
    drained = false;
    finished = false }

let port t = t.bound_port
let request_drain t = Atomic.set t.drain_flag true
let request_reload t = Atomic.set t.reload_flag true

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> request_reload t))

(* Hot-swap, executed on the event-loop domain strictly between dispatches:
   run_batch is synchronous, so no admitted request is mid-flight — every
   in-flight request has already finished on the old weights, and every
   request dispatched after this point sees only the new ones. Queued
   requests are untouched (they were admitted, they will be answered; which
   model answers them is decided by when their batch dispatches, exactly as
   it would be with a request racing a swap over TCP). *)
let do_reload t =
  match t.reload_source with
  | None -> t.reload_failures <- t.reload_failures + 1
  | Some source -> (
      let ordinal = t.reloads + t.reload_noops + 1 in
      match source ordinal with
      | None -> t.reload_failures <- t.reload_failures + 1
      | Some model -> (
          let old_digest = Server.model_digest t.server in
          match Server.swap_model t.server model with
          | `Unchanged _ -> t.reload_noops <- t.reload_noops + 1
          | `Swapped d ->
              t.reloads <- t.reloads + 1;
              (match t.on_swap with
              | Some f -> f ~old_digest ~new_digest:d
              | None -> ())))

(* --- connection plumbing ----------------------------------------------------- *)

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    c.reading <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

(* Returns [true] when the frame reached the wire. *)
let send t c msg =
  if not c.alive then false
  else
    match Frame.write_all c.fd (Codec.encode msg) with
    | () ->
        t.frames_out <- t.frames_out + 1;
        Probe.incr t.probe Probe.Net_frame_out;
        true
    | exception Unix.Unix_error _ ->
        close_conn t c;
        false

let answered t c =
  c.outstanding <- c.outstanding - 1;
  if c.closing && c.outstanding <= 0 then close_conn t c

let refusal ~reason (wr : Codec.wire_request) =
  { Codec.rs_id = wr.Codec.rq_id;
    rs_status = "overloaded";
    rs_program = None;
    rs_nn_tokens = [];
    rs_score = 0.0;
    rs_from_cache = false;
    rs_degraded = false;
    rs_attempts = 0;
    rs_worker = 0;
    rs_notifications = 0;
    rs_side_effects = 0;
    rs_error = Some reason;
    rs_total_ns = 0.0;
    rs_queue_ns = 0.0 }

let protocol_error t c =
  t.protocol_errors <- t.protocol_errors + 1;
  (* The stream can no longer be trusted, so no farewell frame: any
     responses still owed to this connection will count as dropped. *)
  close_conn t c

let mark_eof t c =
  c.reading <- false;
  c.closing <- true;
  if c.outstanding <= 0 then close_conn t c

(* --- dispatch ---------------------------------------------------------------- *)

let dispatch t ~now_ns =
  let batch = Batcher.take t.batcher ~now_ns in
  if batch <> [] then begin
    Probe.incr t.probe Probe.Net_batch;
    let reqs =
      List.map
        (fun (it, _) ->
          Codec.request_of_wire { it.it_wr with Codec.rq_id = it.it_srv_id })
        batch
    in
    let t0 = Tracer.now_ns () in
    let resps = Server.run_batch t.server reqs in
    let t1 = Tracer.now_ns () in
    if Tracer.enabled t.tracer then begin
      let seed = Tracer.seed t.tracer in
      let bspan =
        Span.v ~seed ~request:t.batch_ordinal ~seq:0
          ~attrs:[ ("size", string_of_int (List.length batch)) ]
          ~start_ns:t0 ~dur_ns:(t1 -. t0) "net.batch"
      in
      Tracer.record t.tracer ~slot:t.tracer_slot bspan;
      List.iter
        (fun (it, wait) ->
          Tracer.record t.tracer ~slot:t.tracer_slot
            (Span.v ~seed ~request:it.it_srv_id ~seq:1
               ~parent:bspan.Span.id
               ~start_ns:(t0 -. wait) ~dur_ns:wait "net.queue"))
        batch
    end;
    t.batch_ordinal <- t.batch_ordinal + 1;
    let by_srv_id = Hashtbl.create (List.length batch) in
    List.iter
      (fun (it, wait) -> Hashtbl.replace by_srv_id it.it_srv_id (it, wait))
      batch;
    List.iter
      (fun (r : Response.t) ->
        match Hashtbl.find_opt by_srv_id r.Response.id with
        | None -> ()  (* run_batch answers exactly the ids submitted *)
        | Some (it, wait) ->
            let wire =
              { (Codec.wire_of_response ~queue_ns:wait r) with
                Codec.rs_id = it.it_wr.Codec.rq_id }
            in
            if send t it.it_conn (Codec.Response wire) then
              t.responses <- t.responses + 1
            else t.dropped_responses <- t.dropped_responses + 1;
            answered t it.it_conn)
      resps
  end

(* --- stats ------------------------------------------------------------------- *)

type stats = {
  connections : int;
  refused_connections : int;
  frames_in : int;
  frames_out : int;
  requests : int;
  responses : int;
  shed : int;
  refused_draining : int;
  protocol_errors : int;
  dropped_responses : int;
  batches : int;
  max_batch : int;
  batch_histogram : (int * int) list;
  queue_wait_mean_ms : float;
  queue_wait_p50_ms : float;
  queue_wait_p95_ms : float;
  queue_wait_p99_ms : float;
  reloads : int;
  reload_noops : int;
  reload_failures : int;
  model_digest : string;
  model_kind : string;
  drained : bool;
}

let stats t =
  let b = Batcher.stats t.batcher in
  let waits = b.Batcher.queue_wait_ns in
  let ms x = x /. 1e6 in
  { connections = t.connections;
    refused_connections = t.refused_connections;
    frames_in = t.frames_in;
    frames_out = t.frames_out;
    requests = t.requests;
    responses = t.responses;
    shed = b.Batcher.shed;
    refused_draining = b.Batcher.refused_draining;
    protocol_errors = t.protocol_errors;
    dropped_responses = t.dropped_responses;
    batches = b.Batcher.batches;
    max_batch = b.Batcher.max_batch;
    batch_histogram = b.Batcher.batch_histogram;
    queue_wait_mean_ms = ms (Stat.mean waits);
    queue_wait_p50_ms = ms (Stat.percentile waits 50.0);
    queue_wait_p95_ms = ms (Stat.percentile waits 95.0);
    queue_wait_p99_ms = ms (Stat.percentile waits 99.0);
    reloads = t.reloads;
    reload_noops = t.reload_noops;
    reload_failures = t.reload_failures;
    model_digest = Server.model_digest t.server;
    model_kind = Server.model_kind t.server;
    drained = t.drained }

let stats_json t =
  let s = stats t in
  let ss = Server.stats t.server in
  Json.Obj
    [ ("connections", Json.Int s.connections);
      ("refused_connections", Json.Int s.refused_connections);
      ("frames_in", Json.Int s.frames_in);
      ("frames_out", Json.Int s.frames_out);
      ("requests", Json.Int s.requests);
      ("responses", Json.Int s.responses);
      ("shed", Json.Int s.shed);
      ("refused_draining", Json.Int s.refused_draining);
      ("protocol_errors", Json.Int s.protocol_errors);
      ("dropped_responses", Json.Int s.dropped_responses);
      ("batches", Json.Int s.batches);
      ("max_batch", Json.Int s.max_batch);
      ( "batch_histogram",
        Json.List
          (List.map
             (fun (size, count) -> Json.List [ Json.Int size; Json.Int count ])
             s.batch_histogram) );
      ("queue_wait_mean_ms", Json.Float s.queue_wait_mean_ms);
      ("queue_wait_p50_ms", Json.Float s.queue_wait_p50_ms);
      ("queue_wait_p95_ms", Json.Float s.queue_wait_p95_ms);
      ("queue_wait_p99_ms", Json.Float s.queue_wait_p99_ms);
      ("reloads", Json.Int s.reloads);
      ("reload_noops", Json.Int s.reload_noops);
      ("reload_failures", Json.Int s.reload_failures);
      ("model_digest", Json.String s.model_digest);
      ("model_kind", Json.String s.model_kind);
      ("drained", Json.Bool s.drained);
      ( "server",
        Json.Obj
          [ ("workers", Json.Int ss.Server.workers);
            ("requests", Json.Int ss.Server.requests);
            ("ok", Json.Int ss.Server.ok);
            ("errors", Json.Int ss.Server.errors);
            ("no_parse", Json.Int ss.Server.no_parse);
            ("timeouts", Json.Int ss.Server.timeouts);
            ("shed", Json.Int ss.Server.shed);
            ("retries", Json.Int ss.Server.retries);
            ("degraded", Json.Int ss.Server.degraded);
            ("model_digest", Json.String ss.Server.model_digest);
            ("model_kind", Json.String ss.Server.model_kind);
            ("swaps", Json.Int ss.Server.swaps);
            ("cache_hits", Json.Int ss.Server.cache_hits);
            ("cache_misses", Json.Int ss.Server.cache_misses);
            ("batches", Json.Int ss.Server.batches);
            ("throughput_rps", Json.Float ss.Server.throughput_rps);
            ("cumulative_rps", Json.Float ss.Server.cumulative_rps);
            ("total_seconds", Json.Float ss.Server.total_seconds);
            ("p95_ms", Json.Float ss.Server.p95_ms) ] );
      ( "stages",
        Json.Obj
          (List.map
             (fun (name, n) -> (name, Json.Int n))
             (Server.metrics_snapshot t.server).Genie_serve.Metrics.stages) )
    ]

(* --- event handling ---------------------------------------------------------- *)

let handle_msg (t : t) c msg =
  match msg with
  | Codec.Hello _ -> ()
  | Codec.Bye -> mark_eof t c
  | Codec.Drain -> request_drain t
  | Codec.Reload -> request_reload t
  | Codec.Stats_request ->
      ignore (send t c (Codec.Stats (Json.to_string_compact (stats_json t))))
  | Codec.Request wr -> (
      t.requests <- t.requests + 1;
      let now_ns = Tracer.now_ns () in
      let it = { it_conn = c; it_wr = wr; it_srv_id = t.next_srv_id } in
      match Batcher.admit t.batcher ~now_ns it with
      | `Admitted ->
          t.next_srv_id <- t.next_srv_id + 1;
          c.outstanding <- c.outstanding + 1;
          Probe.incr t.probe Probe.Net_queue
      | `Shed ->
          Probe.incr t.probe Probe.Net_shed;
          if send t c (Codec.Response (refusal ~reason:"admission queue full" wr))
          then t.responses <- t.responses + 1
          else t.dropped_responses <- t.dropped_responses + 1
      | `Draining ->
          if send t c (Codec.Response (refusal ~reason:"draining" wr)) then
            t.responses <- t.responses + 1
          else t.dropped_responses <- t.dropped_responses + 1)
  | Codec.Response _ | Codec.Stats _ ->
      (* server-to-client frames have no business arriving here *)
      protocol_error t c

let rec drain_frames (t : t) c =
  if c.alive then
    match Frame.next c.decoder with
    | Ok None -> ()
    | Error _ ->
        t.frames_in <- t.frames_in + 1;
        protocol_error t c
    | Ok (Some f) -> (
        t.frames_in <- t.frames_in + 1;
        Probe.incr t.probe Probe.Net_frame_in;
        match Codec.decode f with
        | Error _ -> protocol_error t c
        | Ok msg ->
            handle_msg t c msg;
            drain_frames t c)

let read_conn t buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> mark_eof t c
  | n ->
      Frame.feed c.decoder ~len:n (Bytes.unsafe_to_string buf);
      drain_frames t c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let accept_conn t listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | fd, _addr ->
      if List.length t.conns >= t.config.max_connections then begin
        t.refused_connections <- t.refused_connections + 1;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        t.connections <- t.connections + 1;
        Probe.incr t.probe Probe.Net_accept;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        t.conns <-
          { fd;
            decoder = Frame.decoder ();
            alive = true;
            reading = true;
            outstanding = 0;
            closing = false }
          :: t.conns
      end

let close_listener t =
  match t.listen_fd with
  | None -> ()
  | Some fd ->
      t.listen_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- the loop ---------------------------------------------------------------- *)

let run t =
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore () = ignore (Sys.signal Sys.sigpipe old_pipe) in
  let buf = Bytes.create 65536 in
  (* Each turn reads every readable socket, then dispatches one batch of at
     most batch_max if anything is queued: requests that arrive while a
     batch is being served queue up and go out together on the next turn.
     Select blocks only on an idle loop, for at most the 50 ms tick that
     notices the drain and reload flags. *)
  (try
     while not t.finished do
       if Atomic.get t.drain_flag && not (Batcher.draining t.batcher) then begin
         (* Graceful drain: no new connections, no new admissions (requests
            still in socket buffers are refused); the queue empties one
            batch per turn, then every connection closes. *)
         Batcher.start_drain t.batcher;
         close_listener t
       end;
       let draining = Batcher.draining t.batcher in
       (* reloads commit between dispatches; a daemon that is draining
          ignores them (the remaining requests finish on the weights they
          were admitted under) *)
       if Atomic.get t.reload_flag && not draining then begin
         Atomic.set t.reload_flag false;
         do_reload t
       end;
       let timeout =
         if draining || Batcher.pending t.batcher > 0 then 0.0 else 0.05
       in
       let read_fds =
         (match t.listen_fd with Some fd -> [ fd ] | None -> [])
         @ List.filter_map
             (fun c -> if c.alive && c.reading then Some c.fd else None)
             t.conns
       in
       (match Unix.select read_fds [] [] timeout with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | ready, _, _ ->
           List.iter
             (fun fd ->
               match t.listen_fd with
               | Some l when fd = l -> accept_conn t l
               | _ -> (
                   match List.find_opt (fun c -> c.fd = fd) t.conns with
                   | Some c when c.alive && c.reading -> read_conn t buf c
                   | _ -> ()))
             ready);
       dispatch t ~now_ns:(Tracer.now_ns ());
       if draining && Batcher.pending t.batcher = 0 then begin
         List.iter (fun c -> close_conn t c) t.conns;
         t.drained <- true;
         t.finished <- true
       end
     done
   with e ->
     restore ();
     raise e);
  restore ()
