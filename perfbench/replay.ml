(* The replay: the workload's exact request stream re-served in this process
   through the public layer functions, in the order Genie_serve.Engine.process
   calls them. Untraced, its answers are the reference the correctness gate
   holds the daemon to. Traced, each call gets a span (name, start, duration,
   parent, request id), kept in memory until the run ends. *)

open Genie_thingtalk
module Tracer = Genie_observe.Tracer
module Span = Genie_observe.Span
module Codec = Genie_net.Codec
module Frame = Genie_net.Frame
module Model = Genie_parser_model.Model
module Aligner = Genie_parser_model.Aligner
module Lru = Genie_util.Lru

let span_seed = 1

(* The daemon's defaults: 4096-entry parse and compiled-program caches and
   compiled execution on a runtime seeded like worker 0's. *)
let cache_capacity = 4096

type entry = { pred : Model.prediction; text : string option }

type t = {
  answers : (int, string option) Hashtbl.t;  (* request id -> program text *)
  decoded : (string list * Ast.program option) list;  (* every parse miss *)
  spans : Span.t list;
}

(* Compiled execution as the daemon runs it by default; errors are the
   request's, not the benchmark's. *)
let exec ccache env lib ~ticks ~text p =
  match Genie_runtime.Compile_cache.find_or_compile ccache lib ~key:text p with
  | `Hit c | `Miss c -> (
      match Genie_runtime.Compile.run ~ticks env c with
      | ns, effects -> (List.length ns, List.length effects)
      | exception _ -> (0, 0))
  | exception _ -> (0, 0)

let run ~trace ~lib ~(model : Model.t) (records : Drive.record list) =
  let tracer =
    if trace then
      Tracer.create ~seed:span_seed ~capacity:((16 * List.length records) + 64) ~slots:1 ()
    else Tracer.disabled
  in
  let clock () = if trace then Tracer.now_ns () else 0.0 in
  let cache : entry Lru.t = Lru.create ~capacity:cache_capacity in
  let ccache = Genie_runtime.Compile_cache.create ~capacity:cache_capacity in
  let env = Genie_runtime.Exec.create ~seed:0 lib in
  let answers = Hashtbl.create (List.length records) in
  let decoded = ref [] in
  List.iter
    (fun (r : Drive.record) ->
      let request = r.Drive.id in
      let frame = Codec.encode (Codec.Request (Drive.wire r)) in
      let id_of seq name = Span.id_of ~seed:span_seed ~request ~attempt:0 ~seq ~name in
      let root = id_of 0 "request" in
      let span ~seq ?(attrs = []) name t0 t1 =
        if trace then
          Tracer.record tracer ~slot:0
            (Span.v ~seed:span_seed ~request ~seq ~parent:root ~attrs ~start_ns:t0
               ~dur_ns:(t1 -. t0) name)
      in
      let t0 = clock () in
      let wr =
        let dec = Frame.decoder () in
        Frame.feed dec frame;
        match Frame.next dec with
        | Ok (Some f) -> (
            match Codec.decode f with
            | Ok (Codec.Request wr) -> wr
            | _ -> failwith "replay: a request frame did not decode")
        | _ -> failwith "replay: request bytes did not frame"
      in
      let t1 = clock () in
      span ~seq:1 "codec.decode" t0 t1;
      let key = Genie_serve.Request.cache_key wr.Codec.rq_utterance in
      let tokens = Genie_util.Tok.tokenize wr.Codec.rq_utterance in
      let t2 = clock () in
      span ~seq:2 "tokenize" t1 t2;
      let found = Lru.find cache key in
      let t3 = clock () in
      span ~seq:3
        ~attrs:[ ("cache", if Option.is_some found then "hit" else "miss") ]
        "cache" t2 t3;
      let e, t5 =
        match found with
        | Some e -> (e, t3)
        | None ->
            (* the aligner hangs decode.rank / beam / slots off this span *)
            let scope =
              Tracer.scope tracer ~slot:0 ~request ~attempt:0 ~parent:(id_of 4 "decode")
            in
            let pred = model.Model.predict ?scope tokens in
            let t4 = clock () in
            span ~seq:4 "decode" t3 t4;
            let e = { pred; text = Option.map Printer.program_to_string pred.Model.program } in
            Lru.add cache key e;
            let t5 = clock () in
            span ~seq:5 "print" t4 t5;
            decoded := (tokens, pred.Model.program) :: !decoded;
            (e, t5)
      in
      (* execution cannot change an answer, so only a traced replay runs it *)
      let notifications, side_effects, t6 =
        match (trace && wr.Codec.rq_execute, e.pred.Model.program, e.text) with
        | true, Some p, Some text ->
            let n, fx = exec ccache env lib ~ticks:wr.Codec.rq_ticks ~text p in
            let t6 = clock () in
            span ~seq:6 "exec" t5 t6;
            (n, fx, t6)
        | _ -> (0, 0, t5)
      in
      let response =
        { Codec.rs_id = request;
          rs_status = (if Option.is_some e.pred.Model.program then "ok" else "no-parse");
          rs_program = e.text;
          rs_nn_tokens = e.pred.Model.nn_tokens;
          rs_score = e.pred.Model.score;
          rs_from_cache = Option.is_some found;
          rs_degraded = false;
          rs_attempts = 1;
          rs_worker = 0;
          rs_notifications = notifications;
          rs_side_effects = side_effects;
          rs_error = None;
          rs_total_ns = 0.0;
          rs_queue_ns = 0.0 }
      in
      ignore (Sys.opaque_identity (Codec.encode (Codec.Response response)));
      let t7 = clock () in
      span ~seq:7 "codec.encode" t6 t7;
      if trace then
        Tracer.record tracer ~slot:0
          (Span.v ~seed:span_seed ~request ~seq:0 ~start_ns:t0 ~dur_ns:(t7 -. t0) "request");
      Hashtbl.replace answers request e.text)
    records;
  { answers; decoded = List.rev !decoded; spans = Tracer.spans tracer }

(* Each span with its self time: its duration minus the parts its children
   cover. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | Some p ->
          Hashtbl.replace covered p
            (s.Span.dur_ns +. Option.value ~default:0.0 (Hashtbl.find_opt covered p))
      | None -> ())
    spans;
  List.map
    (fun (s : Span.t) ->
      (s, s.Span.dur_ns -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.Span.id)))
    spans

type probes = {
  argument_id_us : float list;
  candidate_keys_ms : float list;
  compose_candidates_ms : float list;
  top_clauses_ms : float list;
  composed : float list;
  typecheck_us : float list;
  exec_us : float list;
}

(* Direct calls into the aligner's exposed decode steps and the other layers
   a parse miss reaches, once per decoded sentence. Each aligner step gets a
   fresh per-sentence score cache, as predict_with starts with one. *)
let probe ~lib ~(aligner : Aligner.t) decoded =
  let arg = ref [] and ck = ref [] and cc = ref [] and tc = ref [] and composed = ref [] in
  let tyc = ref [] and ex = ref [] in
  let env = Genie_runtime.Exec.create ~seed:0 lib in
  let ccache = Genie_runtime.Compile_cache.create ~capacity:cache_capacity in
  let push r s scale = r := (s *. scale) :: !r in
  List.iter
    (fun (tokens, program) ->
      let norm, s =
        Measure.time (fun () ->
            Genie_dataset.Argument_id.normalize (List.filter (fun t -> t <> "\"") tokens))
      in
      push arg s 1e6;
      let grams = Aligner.sentence_ngrams norm.Genie_dataset.Argument_id.tokens in
      let _, s = Measure.time (fun () -> Aligner.candidate_keys aligner (Hashtbl.create 512) grams) in
      push ck s 1e3;
      let comp, s =
        Measure.time (fun () -> Aligner.compose_candidates aligner (Hashtbl.create 512) grams)
      in
      push cc s 1e3;
      composed := float_of_int (List.length comp) :: !composed;
      let _, s =
        Measure.time (fun () ->
            let c = Hashtbl.create 512 in
            List.iter
              (fun tbl -> ignore (Aligner.top_clauses aligner c grams tbl 5))
              [ aligner.Aligner.streams; aligner.Aligner.queries; aligner.Aligner.actions ])
      in
      push tc s 1e3;
      match program with
      | None -> ()
      | Some p ->
          let _, s = Measure.time (fun () -> Typecheck.check_program lib p) in
          push tyc s 1e6;
          let text = Printer.program_to_string p in
          let _, s = Measure.time (fun () -> exec ccache env lib ~ticks:3 ~text p) in
          push ex s 1e6)
    decoded;
  { argument_id_us = !arg;
    candidate_keys_ms = !ck;
    compose_candidates_ms = !cc;
    top_clauses_ms = !tc;
    composed = !composed;
    typecheck_us = !tyc;
    exec_us = !ex }
