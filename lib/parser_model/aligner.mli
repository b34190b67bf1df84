(** The Aligner semantic-parser backend.

    A fast statistical stand-in for the MQAN model (the substitution argument
    is in DESIGN.md) that preserves the causal structure of the paper's
    experiments:

    - the {e skeleton inventory} -- whole programs reachable by the decoder --
      comes from training data and, when the decoder-LM feature is on, from
      pretraining on a large synthesized program corpus (section 4.2);
    - a {e compositional decoder} recombines learned stream / query / action
      clause fragments into new programs (with automatically derived
      parameter-passing variants), type-checking each combination: the
      type-based compositionality that synthesized data teaches (section 3.4);
    - {e lexical alignment} between sentence n-grams and program atoms scores
      candidates, with explaining-away coverage of the sentence's content
      words;
    - a {e copy mechanism} fills string-like slots with sentence spans scored
      by per-parameter word statistics, gazette membership, lexical anchors
      and boundary features -- what parameter expansion trains (section 3.3). *)

open Genie_thingtalk

type config = {
  options : Nn_syntax.options;  (** keyword-param / type-annotation ablations *)
  canonicalize : bool;  (** Table 3: canonical form of training targets *)
  use_decoder_lm : bool;  (** Table 3: pretrained program LM *)
  lm_programs : Ast.program list;
  gazette_size : int;
  seed : int;
  beam : int;
  max_candidates : int;
}

val default_config : config

(** Scoring features of a skeleton, fixed when its entry is created: its
    {!Skeleton.atoms} with their {!atom_weight}s, its content atoms
    (function, parameter and enum atoms: the ones that can explain a
    sentence word), its size penalty, whether it is a stream program, and
    whether it passes a parameter. *)
type features = {
  skeleton_atoms : string array;
  weights : float array;
  content_atoms : string array;
  size_penalty : float;
  is_stream : bool;
  passing : bool;
}

type skeleton_entry = {
  skeleton : Skeleton.t;
  key : string;  (** [Skeleton.key skeleton] *)
  id : int;  (** registration order in the inventory; [-1] when composed *)
  features : features;
  mutable count : float;
  mutable lm_count : float;
}

type clause =
  | C_stream of Ast.stream
  | C_query of Ast.query
  | C_action of Ast.action

type clause_entry = {
  clause : clause;
  atoms : string list;
  mutable c_count : float;
  mutable c_lm : float;
}

type t = {
  cfg : config;
  lib : Schema.Library.t;
  inventory : (string, skeleton_entry) Hashtbl.t;
  by_function : (string, string list ref) Hashtbl.t;
  ngram_counts : Genie_util.Counter.t;
  atom_counts : Genie_util.Counter.t;
  pair_counts : Genie_util.Counter.t;
  slot_word_counts : Genie_util.Counter.t;
  slot_param_counts : Genie_util.Counter.t;
  slot_value_counts : Genie_util.Counter.t;
  memo : (string, Genie_util.Counter.t) Hashtbl.t;
  gazettes : Genie_augment.Gazettes.t;
  gazette_sets : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  streams : (string, clause_entry) Hashtbl.t;
  queries : (string, clause_entry) Hashtbl.t;
  actions : (string, clause_entry) Hashtbl.t;
  mutable trained_examples : int;
  functions : (string * skeleton_entry array) array;
      (** per function atom: its skeletons sorted by training count *)
}

val train :
  ?cfg:config -> Schema.Library.t -> Genie_dataset.Example.t list -> t
(** Builds the model from a training set: argument-identifies each sentence,
    canonicalizes (or deliberately shuffles, for the ablation) each program,
    and accumulates inventory, clause, alignment and copy statistics.

    Alignment pairs are counted once per distinct pair: each sentence's
    n-grams are interned to ids and recorded under every atom of its
    skeleton; after the last example, each atom's id arrays are summed
    into one dense row and every touched cell is written to [pair_counts]
    once. The counts equal one per (atom, n-gram occurrence) pair.

    Each skeleton's scoring {!features} are computed once, when it enters
    the inventory, and [train] ends by sorting each function atom's
    skeletons by training count ([functions]), so a decode spends no time
    on either. The result is never written again: one [t] can serve any
    number of domains at once. Score ties are broken in an order that does
    not depend on the hash seed, so predictions are the same under
    [OCAMLRUNPARAM=R]. *)

type prediction = {
  program : Ast.program option;
  nn_tokens : string list;
  score : float;
}

val no_prediction : prediction

val predict :
  ?scope:Genie_observe.Tracer.scope -> t -> string list -> prediction
(** Parses a tokenized sentence: candidate skeletons from the inventory (via
    an inverted function index) and from clause composition are scored by
    atom support + coverage + priors + surface cues, the best few are
    slot-filled, and the best completed program wins. The output always
    type-checks. Each atom's support from the sentence's n-grams, each
    (atom, content word) coverage score and the sentence-level cues are
    computed at most once per sentence and shared by every candidate. With
    [scope], the decode loop reports its three phases
    ([decode.rank], [decode.beam], [decode.slots]) as child spans; without
    it, no clocks are read. Only reads [t]. *)

val predict_batch : t -> string list list -> prediction list
(** [List.map (predict t)]: the evaluation entry point. *)

(** {2 Exposed internals}

    The scoring and filling machinery is exposed for the test suite and the
    diagnostic tooling. *)

val sentence_ngrams : string list -> string list
val content_tokens : string list -> string list
val cond_score : t -> string -> string -> float
val best_match : t -> string list -> string -> float
val cached_best_match : t -> (string, float) Hashtbl.t -> string list -> string -> float
val atom_weight : string -> float
val best_explainer : t -> string -> float

val top_k : int -> (float * 'a) list -> (float * 'a) list
(** [top_k k xs] is the first [k] elements of [xs] stably sorted by
    descending score, found without sorting the rest. *)

type sentence
(** What scoring needs from one sentence besides its atom support: its
    content words ({!content_tokens}) with IDF weights and their
    {!best_explainer}, its when-word and pronoun cues, and a memo, per atom,
    of its {!cond_score} against each content word. *)

val sentence_of : t -> string list -> string list -> sentence
(** [sentence_of t grams content] for a sentence's n-grams and content
    words. *)

(** The decode steps below take a per-sentence {!cached_best_match} table
    (atom -> support); pass a fresh one per sentence, or share one between
    the steps of a sentence. *)

val score_skeleton :
  t -> (string, float) Hashtbl.t -> sentence -> skeleton_entry -> float

val candidate_keys : t -> (string, float) Hashtbl.t -> string list -> string list
val compose_candidates : t -> (string, float) Hashtbl.t -> string list -> skeleton_entry list
val clause_score : t -> (string, float) Hashtbl.t -> string list -> clause_entry -> float

val top_clauses :
  t -> (string, float) Hashtbl.t -> string list -> (string, clause_entry) Hashtbl.t ->
  int -> clause_entry list

val clause_key : clause -> string

val fill_slots :
  t -> Skeleton.t -> Genie_dataset.Argument_id.result ->
  (string * Value.t) list * float

val span_score :
  t ->
  param:string ->
  pool_opt:string option ->
  cue:(string -> float) ->
  before:string option ->
  after:string option ->
  string list ->
  float

val candidate_spans : string list -> (int * string list) list
val shuffle_program : Genie_util.Rng.t -> Ast.program -> Ast.program
val cfg : t -> config

val digest : t -> string
(** 16-hex digest over every statistical table a prediction can depend on
    (inventory, clause fragments, alignment and copy counters, decoding
    config). Each entry is hashed on its own and a table contributes its
    size and the sum of its entry hashes mod 2{^64}, so the digest takes
    linear time, needs no sort, and is the same under randomized hash seeds,
    in any insertion order and across shallow copies. Equal digests mean the models answer
    every sentence identically; the serve layer uses this as the active
    model's identity for cache invalidation and stats. *)
