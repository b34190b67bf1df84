(** Neural layers on the autodiff tape: parameters, linear maps, embeddings,
    an LSTM cell and dot-product attention. Every layer is row-batched — feed
    [batch x dim] nodes, get [batch x dim'] nodes; a one-row batch is bitwise
    identical to the historical per-example path. *)

type param = {
  uid : int;  (** keys tape-private gradient buffers in parallel training *)
  name : string;
  tensor : Tensor.t;
  grad : Tensor.t;
  m : Tensor.t;  (** Adam first moment *)
  v : Tensor.t;  (** Adam second moment *)
}

val mk_param : Genie_util.Rng.t -> string -> int -> int -> param
val mk_param_zero : string -> int -> int -> param

val use : Autodiff.tape -> param -> Autodiff.node
(** Binds a parameter for this forward pass: a leaf node whose gradient
    buffer is the parameter's -- or a tape-private buffer keyed by [uid] on a
    private-leaves tape (parallel workers never share gradient storage). *)

type linear = { w : param; b : param }

val mk_linear : Genie_util.Rng.t -> string -> input:int -> output:int -> linear
val linear_params : linear -> param list
val apply_linear : Autodiff.tape -> linear -> Autodiff.node -> Autodiff.node

type embedding = { table : param; dim : int }

val mk_embedding : Genie_util.Rng.t -> string -> vocab:int -> dim:int -> embedding
val embedding_params : embedding -> param list
val lookup : Autodiff.tape -> embedding -> int -> Autodiff.node

val lookup_rows : Autodiff.tape -> embedding -> int array -> Autodiff.node
(** Batched lookup: row [r] of the result embeds [ids.(r)]. *)

type lstm = { wi : linear; wf : linear; wo : linear; wg : linear; hidden : int }

val mk_lstm : Genie_util.Rng.t -> string -> input:int -> hidden:int -> lstm
val lstm_params : lstm -> param list

type lstm_state = { h : Autodiff.node; c : Autodiff.node }

val lstm_init : ?rows:int -> Autodiff.tape -> lstm -> lstm_state
(** Zero state for a batch of [rows] (default 1). *)

val lstm_step : Autodiff.tape -> lstm -> lstm_state -> Autodiff.node -> lstm_state

val attention :
  ?lengths:int array ->
  Autodiff.tape ->
  Autodiff.node list ->
  Autodiff.node ->
  Autodiff.node * Autodiff.node
(** Dot-product attention of a batch of queries over per-step batches of
    encoder states: (weights [rows x T], context [rows x hidden]), both
    differentiable. [lengths.(r)] masks positions at or beyond row r's source
    length. *)
