(** A serving response: the parse (and optional execution result) for one
    request, with per-stage wall-clock timings.

    Every submitted request gets exactly one response; the {!status} says
    how it was resolved. *)

open Genie_thingtalk

type status =
  | Ok  (** parsed (and executed, if asked) within its deadline *)
  | No_parse  (** the parser found no program *)
  | Timeout  (** the request's deadline expired before an answer was ready *)
  | Overloaded  (** shed at admission: the worker's queue was full *)
  | Error  (** parser/runtime exception, or retries exhausted; see [error] *)

val status_to_string : status -> string

type timing = {
  tokenize_ns : float;
  parse_ns : float;  (** cache lookup + aligner decode on a miss, including
                         any injected fault latency *)
  exec_ns : float;  (** 0 when the request did not execute *)
  total_ns : float;
}

val no_timing : timing
(** All-zero timings: the timing of a shed response, which did no work. *)

type t = {
  id : int;  (** copied from the request *)
  utterance : string;
  status : status;
  program : Ast.program option;  (** [None] unless [status] is [Ok] *)
  program_text : string option;  (** surface syntax of [program] *)
  nn_tokens : string list;  (** the parser's NN-syntax token output *)
  score : float;  (** parser confidence score *)
  from_cache : bool;
  degraded : bool;
      (** answered from the server's degraded-path cache because the pool
          was saturated; the parse is identical to a cold parse, but nothing
          executed *)
  attempts : int;  (** 1 + the number of retries this response took *)
  worker : int;  (** index of the engine that served (or would have served)
                     the request *)
  notifications : int;  (** execution: this request's run's notification count *)
  side_effects : int;  (** execution: this request's run's side-effect count *)
  error : string option;  (** parse/runtime error detail, if any *)
  timing : timing;
}

val summary : t -> string
(** One-line rendering for CLI output. *)
