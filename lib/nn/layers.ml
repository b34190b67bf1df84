(* Neural layers built on the autodiff tape: parameters, linear maps,
   embeddings, and an LSTM cell. Every layer is row-batched — feed it
   [batch x dim] nodes and it produces [batch x dim'] nodes; a one-row batch
   is bitwise identical to the historical per-example path. *)

type param = { uid : int; name : string; tensor : Tensor.t; grad : Tensor.t;
               (* Adam state *)
               m : Tensor.t; v : Tensor.t }

(* Parameters are created on the main domain before workers start; the uid
   keys tape-private gradient buffers during parallel training. *)
let next_uid = ref 0

let fresh_uid () =
  let u = !next_uid in
  incr next_uid;
  u

let mk_param rng name rows cols =
  let tensor = Tensor.init_uniform rng rows cols in
  { uid = fresh_uid ();
    name;
    tensor;
    grad = Tensor.create rows cols;
    m = Tensor.create rows cols;
    v = Tensor.create rows cols }

let mk_param_zero name rows cols =
  let tensor = Tensor.create rows cols in
  { uid = fresh_uid ();
    name;
    tensor;
    grad = Tensor.create rows cols;
    m = Tensor.create rows cols;
    v = Tensor.create rows cols }

(* Bind a parameter onto the tape for this forward pass: a leaf node whose
   gradient buffer is the parameter's shared one -- or, on a private-leaves
   tape (parallel workers), a tape-private buffer keyed by the uid so no two
   domains ever write the same gradient storage. *)
let use tape (p : param) : Autodiff.node =
  let grad =
    match
      Autodiff.private_grad tape ~key:p.uid ~rows:p.tensor.Tensor.rows
        ~cols:p.tensor.Tensor.cols
    with
    | Some g -> g
    | None -> p.grad
  in
  Autodiff.leaf_with_grad tape p.tensor ~grad

(* --- linear --------------------------------------------------------------- *)

type linear = { w : param; b : param }

let mk_linear rng name ~input ~output =
  { w = mk_param rng (name ^ ".w") input output; b = mk_param_zero (name ^ ".b") 1 output }

let linear_params l = [ l.w; l.b ]

let apply_linear tape (l : linear) x =
  Autodiff.add tape (Autodiff.vec_mat tape x (use tape l.w)) (use tape l.b)

(* --- embedding -------------------------------------------------------------- *)

type embedding = { table : param; dim : int }

let mk_embedding rng name ~vocab ~dim = { table = mk_param rng name vocab dim; dim }

let embedding_params e = [ e.table ]

let lookup tape (e : embedding) i = Autodiff.row tape (use tape e.table) i

let lookup_rows tape (e : embedding) ids = Autodiff.rows tape (use tape e.table) ids

(* --- LSTM cell --------------------------------------------------------------- *)

type lstm = {
  wi : linear; (* input gate *)
  wf : linear; (* forget gate *)
  wo : linear; (* output gate *)
  wg : linear; (* candidate *)
  hidden : int;
}

let mk_lstm rng name ~input ~hidden =
  let io = input + hidden in
  { wi = mk_linear rng (name ^ ".i") ~input:io ~output:hidden;
    wf = mk_linear rng (name ^ ".f") ~input:io ~output:hidden;
    wo = mk_linear rng (name ^ ".o") ~input:io ~output:hidden;
    wg = mk_linear rng (name ^ ".g") ~input:io ~output:hidden;
    hidden }

let lstm_params l =
  linear_params l.wi @ linear_params l.wf @ linear_params l.wo @ linear_params l.wg

type lstm_state = { h : Autodiff.node; c : Autodiff.node }

let lstm_init ?(rows = 1) tape (l : lstm) =
  { h = Autodiff.const tape (Tensor.create rows l.hidden);
    c = Autodiff.const tape (Tensor.create rows l.hidden) }

let lstm_step tape (l : lstm) (st : lstm_state) x : lstm_state =
  let xh = Autodiff.concat tape x st.h in
  let i = Autodiff.sigmoid tape (apply_linear tape l.wi xh) in
  let f = Autodiff.sigmoid tape (apply_linear tape l.wf xh) in
  let o = Autodiff.sigmoid tape (apply_linear tape l.wo xh) in
  let g = Autodiff.tanh_ tape (apply_linear tape l.wg xh) in
  let c = Autodiff.add tape (Autodiff.mul tape f st.c) (Autodiff.mul tape i g) in
  let h = Autodiff.mul tape o (Autodiff.tanh_ tape c) in
  { h; c }

(* --- dot-product attention ------------------------------------------------------ *)

(* Attention of a batch of decoder states over per-step batches of encoder
   states: returns (weights node [rows x T], context node [rows x hidden]).
   [lengths.(r)] masks encoder positions at or beyond row r's source length
   ([neg_infinity] score, zero weight, no gradient). Scoring and the
   context sum are fused single ops (three tape nodes per call instead of
   ~4T) that replay the historical per-step node chain's arithmetic element
   for element. *)
let attention ?lengths tape (states : Autodiff.node list) (query : Autodiff.node) =
  let rws = query.Autodiff.value.Tensor.rows in
  let sts = Array.of_list states in
  let scores = Autodiff.attention_scores tape ?lengths sts query in
  let weights = Autodiff.softmax tape scores in
  let context =
    if Array.length sts = 0 then Autodiff.const tape (Tensor.create rws 1)
    else Autodiff.attention_context tape weights sts
  in
  (weights, context)
