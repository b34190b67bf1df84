(** Reverse-mode automatic differentiation on a tape.

    Nodes record in creation order; {!backward} walks the tape in reverse and
    each node's closure scatters its gradient into its parents. Gradients are
    verified against finite differences in the test suite.

    Every operation is row-batched — a node's value is a [rows x cols] tensor
    and every op except the matmul family is row-parallel. All kernels
    accumulate in ascending inner index, so a one-row batch replays exactly
    the scalar operation sequence of the historical per-example ops --
    forward values and gradients at [rows = 1] are bitwise identical to the
    pre-batching tape. *)

type node = {
  id : int;
  value : Tensor.t;
  grad : Tensor.t;  (** accumulated in place during {!backward} *)
  back : unit -> unit;
}

type tape

val new_tape : ?scratch:Tensor.Scratch.arena -> ?private_leaves:bool -> unit -> tape
(** [~scratch] recycles node value/grad buffers from an arena instead of
    allocating per node (reset the arena between optimizer steps, after
    copying gradients out). [~private_leaves:true] gives every distinct
    {!leaf_with_grad} key its own tape-private gradient buffer (see
    {!private_grad}) so concurrent workers sharing read-only parameters never
    write a shared buffer. *)

val tape_length : tape -> int
(** Number of nodes recorded so far (batching collapses per-example tapes). *)

val alloc : tape -> int -> int -> Tensor.t
(** A zeroed [rows x cols] buffer from the tape's arena (or a fresh tensor). *)

val record : tape -> Tensor.t -> (unit -> unit) -> node
(** Low-level: append a node with a custom backward closure. *)

val record_with_grad : tape -> Tensor.t -> grad:Tensor.t -> (unit -> unit) -> node
(** {!record} with an explicit (already zeroed) gradient buffer. *)

val leaf : tape -> Tensor.t -> node
(** A parameter or constant; gradients accumulate but do not propagate. *)

val leaf_with_grad : tape -> Tensor.t -> grad:Tensor.t -> node
(** A leaf whose gradient buffer is supplied by the caller (parameter
    binding). *)

val const : tape -> Tensor.t -> node

val private_leaves : tape -> bool

val private_grad : tape -> key:int -> rows:int -> cols:int -> Tensor.t option
(** On a [private_leaves] tape: the tape-private gradient buffer for leaf
    [key], created zeroed on first use and memoized. [None] on ordinary
    tapes. *)

val find_private_grad : tape -> key:int -> Tensor.t option
(** Lookup without creating (gradient extraction after {!backward}). *)

(** {2 Differentiable operations} *)

val add : tape -> node -> node -> node
(** Elementwise addition; a one-row operand broadcasts over the other
    operand's rows (bias add), its gradient reduced over rows in ascending
    order. *)

val sub : tape -> node -> node -> node

val mul : tape -> node -> node -> node
(** Elementwise product. *)

val scale : tape -> float -> node -> node

val matmul : tape -> node -> node -> node
(** Batched matrix product: [rows x n] times [n x m]. *)

val vec_mat : tape -> node -> node -> node
(** Historical name for {!matmul} (row vector times matrix). *)

val sigmoid : tape -> node -> node

val tanh_ : tape -> node -> node

val concat : tape -> node -> node -> node
(** Row-wise concatenation. *)

val row : tape -> node -> int -> node
(** Embedding-row lookup (zero-copy view of the parent's value). *)

val rows : tape -> node -> int array -> node
(** Batched embedding gather: row [r] of the result is row [ids.(r)] of the
    parent. *)

val dot : tape -> node -> node -> node
(** Inner product; a 1x1 result node. *)

val row_dot : tape -> node -> node -> node
(** Per-row inner product of two [rows x n] nodes; a [rows x 1] node. *)

val pack_cols : tape -> rows:int -> ?lengths:int array -> node list -> node
(** Pack T per-step [rows x 1] score nodes into one [rows x T] node.
    Positions at or beyond [lengths.(r)] hold [neg_infinity] (zero attention
    weight downstream, no gradient). *)

val attention_scores : tape -> ?lengths:int array -> node array -> node -> node
(** Fused attention scoring: one [rows x T] packed score node over T
    per-step state nodes (dot of each state row with the query row,
    ascending j; positions at or beyond [lengths.(r)] hold [neg_infinity]
    and are skipped outright). Bitwise-compatible with the per-step
    {!row_dot}-plus-{!pack_cols} chain it replaces. *)

val attention_context : tape -> node -> node array -> node
(** Fused attention context: row [r] is the sum over t of
    [weights.(r).(t) * states_t.(r)], accumulated in ascending t -- the
    historical {!col}/{!row_scale}/{!add} chain's per-element order. *)

val col : tape -> node -> int -> node
(** Column selection as a [rows x 1] node. *)

val row_scale : tape -> node -> node -> node
(** [row_scale s x]: row [r] of [x] scaled by [s.(r)] ([s] is [rows x 1]). *)

val rows_prefix : tape -> node -> int -> node
(** Zero-copy view of the first [k] rows: the value and gradient alias the
    parent's storage, so consumers accumulate straight into the parent's
    gradient rows. Returns the parent itself at [k = rows]. Used to run a
    padded batch's timestep on only the rows still active (prefix
    trimming). *)

val overlay_rows : tape -> top:node -> base:node -> node
(** [base] with its first [top.rows] rows replaced by [top]; suffix rows pass
    through, and backward routes each row's gradient to the parent that
    supplied it. Scatters a prefix-trimmed step result back into the
    full-batch state. Returns [top] at equal row counts. *)

val add_rows_prefix : tape -> node -> node -> node
(** [add_rows_prefix acc top]: [acc] plus [top] over [top]'s leading rows,
    [acc] passed through beyond them. Exactly {!add} at equal row counts. *)

val masked_select : tape -> bool array -> node -> node -> node
(** [masked_select mask a b]: row [r] is [a]'s where [mask.(r)], else [b]'s;
    gradient flows only to the selected parent (padded-timestep carry). *)

val dropout : tape -> Genie_util.Rng.t -> p:float -> training:bool -> node -> node
(** Inverted dropout; identity when not training or [p <= 0]. *)

val dropout_rows :
  tape ->
  Genie_util.Rng.t array ->
  ?active:bool array ->
  p:float ->
  training:bool ->
  node ->
  node
(** Row-batched inverted dropout: row [r] draws from [rngs.(r)] only, so each
    example's mask is independent of batch composition; inactive rows draw
    nothing and pass through unscaled. *)

val softmax : tape -> node -> node
(** Row-wise softmax (attention weights). A fully-masked row (maximum
    [neg_infinity]) yields zeros and receives no gradient. *)

val softmax_nll : tape -> node -> target:int -> node * float array
(** Fused softmax + negative log-likelihood of [target] over a single row;
    also returns the probabilities. *)

val pointer_nll :
  tape ->
  gate:node ->
  vocab_probs:node ->
  attention:node ->
  target:int ->
  copy_positions:int list ->
  node
(** Mixture NLL of the pointer-generator:
    [-log (gate * p_vocab(target) + (1 - gate) * sum of attention on
    copy_positions)]. A [target] of [-1] disables the vocabulary path (the
    token can only be produced by copying). *)

val pointer_nll_rows :
  tape ->
  gate:node ->
  vocab_probs:node ->
  attention:node ->
  targets:int array ->
  copy_positions:int list array ->
  active:bool array ->
  node
(** One pointer-generator decode step for a whole mini-batch: a [rows x 1]
    node of per-row NLLs. Inactive (padded) rows contribute exactly 0 and
    receive no gradient. *)

val sum_scalars : tape -> node list -> node

val sum_all : tape -> node -> node
(** Sum of every element as a 1x1 node (row-major accumulation); backward
    seeds each element with the incoming gradient. *)

val backward : tape -> node -> unit
(** Backpropagates from a scalar loss node through the whole tape. *)
