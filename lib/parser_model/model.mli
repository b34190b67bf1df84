(** The first-class model interface the serving stack is polymorphic over.

    A {!t} is a record of closures — the prediction entry point plus
    the identity metadata the serve layer keys caches and stats on — so
    the engine, server and daemon never name a concrete backend. Two
    backends exist: the statistical {!Aligner} (wrapped as-is, responses
    byte-identical to calling it directly) and the neural
    {!Genie_nn.Seq2seq} (greedy decode over the row-parallel tensors,
    predictions worker-count-invariant). Serving makes one [predict] call
    per parse-cache miss; batched aligner prediction
    ({!Aligner.predict_batch}) is an evaluation path and is not part of
    this interface.

    A seq2seq handle is {e not} domain-safe: it carries a per-handle tensor
    arena. Call {!fork} to mint a sibling handle for each worker — the heavy
    read-only state (weights) stays physically shared, only the scratch is
    private. An aligner handle is domain-safe (a trained aligner is only
    read), and its [fork] returns the handle itself. *)

open Genie_thingtalk

type kind = Kind_aligner | Kind_seq2seq

val kind_to_string : kind -> string
(** ["aligner"] / ["seq2seq"] — what stats and [ckpt inspect] print. *)

type prediction = Aligner.prediction = {
  program : Ast.program option;
  nn_tokens : string list;
  score : float;
}

val no_prediction : prediction

type t = {
  kind : kind;
  digest : string;
      (** The backend's 16-hex identity: {!Aligner.digest} or
          {!Genie_nn.Seq2seq.weight_digest}. Equal digests answer every
          sentence identically; the serve layer keys cache invalidation
          and swap noop-detection on it. Stable across {!fork}. *)
  predict : ?scope:Genie_observe.Tracer.scope -> string list -> prediction;
      (** Parses one tokenized sentence. [scope] is forwarded to backends
          that trace (the aligner); others ignore it. *)
  fork : unit -> t;
      (** A sibling handle with private mutable scratch (if the backend
          has any) and shared read-only state; same [kind] and [digest]. *)
}

val of_aligner : Aligner.t -> t
(** Wraps a trained aligner. [predict] is the aligner's own, so responses
    are byte-identical to calling it directly; [fork] shares the handle and
    copies nothing. *)

val of_seq2seq :
  ?options:Nn_syntax.options ->
  ?max_len:int ->
  lib:Schema.Library.t ->
  Genie_nn.Seq2seq.t ->
  t
(** Wraps a trained (or checkpoint-restored) seq2seq. Predictions run
    {!Genie_nn.Seq2seq.decode_batch} on a per-handle scratch arena, then
    parse the decoded tokens with {!Nn_syntax.of_tokens} under [options]
    (default {!Nn_syntax.default_options}): a malformed decode yields
    [program = None] with the raw tokens still in [nn_tokens]. [score] is
    the decode's summed log-probability. The empty sentence short-circuits
    to {!no_prediction} (the encoder needs at least one position).
    [fork] shares the weights and allocates a fresh arena. Decoding draws
    from no RNG stream, so concurrent forks cannot perturb each other. *)

val load_checkpoint :
  ?options:Nn_syntax.options ->
  ?max_len:int ->
  lib:Schema.Library.t ->
  string ->
  (t, string) result
(** Boots a servable model from a checkpoint file:
    {!Genie_checkpoint.Checkpoint.load} +
    [restore_weights] (moments skipped — serving never reads them) +
    {!of_seq2seq}. Fail-closed: a truncated, corrupt, wrong-version or
    shape-mismatched file is [Error] and nothing is constructed. *)
