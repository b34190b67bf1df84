(** Evaluation metrics (paper section 5).

    Program accuracy counts a result correct only when the output has the
    correct functions, parameters, joins and filters -- equivalent to an
    exact match of canonicalized programs. Test sentences may carry several
    valid annotations. *)

open Genie_thingtalk

type metrics = {
  n : int;
  program_accuracy : float;
  function_accuracy : float;  (** correct multiset of functions *)
  device_accuracy : float;  (** correct set of skills *)
  prim_compound_accuracy : float;  (** primitive vs compound identified *)
  syntax_ok : float;  (** parses and type-checks (section 5.5) *)
  wrong_param_value : float;
      (** right program shape, wrong copied parameter value *)
  slot_f1 : float;
      (** micro-averaged F1 over (parameter, value) slot multisets, scored
          against each sentence's best-matching annotation; computed once
          from summed integer counts so sharded and batched evaluation
          agree bitwise *)
}

val zero_metrics : metrics

val evaluate :
  Schema.Library.t ->
  (string list -> Ast.program option) ->
  Genie_dataset.Example.t list ->
  metrics
(** Runs a predictor over a test set and scores it against all annotations. *)

val evaluate_batched :
  Schema.Library.t ->
  (string list list -> Ast.program option list) ->
  Genie_dataset.Example.t list ->
  metrics
(** {!evaluate} driven by one whole-set prediction call (such as
    [Aligner.predict_batch]); metrics are identical to {!evaluate} whenever
    the batched predictor agrees with the per-example one. *)

val evaluate_sharded :
  ?workers:int ->
  ?shard_size:int ->
  Schema.Library.t ->
  (string list list -> Ast.program option list) ->
  Genie_dataset.Example.t list ->
  metrics
(** {!evaluate_batched} fanned over a [Genie_conc.Pool]: the test set is cut
    into fixed-size shards (default 32, independent of [workers]), each
    scored by one batched prediction call, and the integer counts are merged
    in submission order. Bitwise identical to {!evaluate_batched} at every
    worker count — the oracle behind [test/golden/eval.digest]. *)

val digest : metrics -> string
(** Hash64 over the metric bit patterns; equal iff every float is bitwise
    identical. Regold the golden with [EVAL_REGOLD=1]. *)

val mean_half_range : float list -> float * float
(** Mean and half of the max-min range over runs, as the paper reports. *)

val pp_metrics : Format.formatter -> metrics -> unit
