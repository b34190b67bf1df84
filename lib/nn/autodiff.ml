(* Reverse-mode automatic differentiation on a tape.

   Nodes are recorded in creation order; [backward] walks the tape in reverse
   and each node's closure scatters its gradient into its parents. Gradients
   are verified against finite differences in the test suite.

   Every operation is row-batched — values are [rows x cols] tensors and all
   ops except the matmul family are row-parallel (row [r] of the output
   depends only on row [r] of the inputs). The batched kernels accumulate in
   ascending inner index, so a batch of one replays exactly the scalar
   operation sequence of the historical per-example ops -- forward values and
   gradients at [rows = 1] are bitwise identical to the pre-batching tape.

   Two optional tape facilities support deterministic data-parallel training:
   - a scratch arena ([new_tape ~scratch]) that recycles value/grad buffers
     between optimizer steps instead of allocating per node;
   - private leaf gradients ([new_tape ~private_leaves:true]) so concurrent
     workers sharing read-only parameters never write a shared grad buffer;
     the trainer copies them out per shard and reduces in fixed shard order. *)

type node = {
  id : int;
  value : Tensor.t;
  grad : Tensor.t; (* accumulated in place *)
  back : unit -> unit; (* reads [grad], accumulates into parents' grads *)
}

type tape = {
  mutable nodes : node list;
  mutable next_id : int;
  scratch : Tensor.Scratch.arena option;
  private_grads : (int, Tensor.t) Hashtbl.t option;
}

let new_tape ?scratch ?(private_leaves = false) () =
  { nodes = [];
    next_id = 0;
    scratch;
    private_grads = (if private_leaves then Some (Hashtbl.create 64) else None) }

let tape_length tape = tape.next_id

let alloc tape rows cols =
  match tape.scratch with
  | Some arena -> Tensor.Scratch.take arena rows cols
  | None -> Tensor.create rows cols

(* Low-level append with an explicit (already zeroed) gradient buffer. *)
let record_with_grad tape value ~grad back =
  let n = { id = tape.next_id; value; grad; back } in
  tape.next_id <- tape.next_id + 1;
  tape.nodes <- n :: tape.nodes;
  n

let record tape value back =
  record_with_grad tape value
    ~grad:(alloc tape value.Tensor.rows value.Tensor.cols)
    back

(* a leaf (parameter or constant); gradients accumulate but nothing propagates *)
let leaf tape value = record tape value (fun () -> ())

let leaf_with_grad tape value ~grad = record_with_grad tape value ~grad (fun () -> ())

let const tape value = record tape value (fun () -> ())

let private_leaves tape = tape.private_grads <> None

let private_grad tape ~key ~rows ~cols =
  match tape.private_grads with
  | None -> None
  | Some tbl -> (
      match Hashtbl.find_opt tbl key with
      | Some g -> Some g
      | None ->
          let g = alloc tape rows cols in
          Hashtbl.add tbl key g;
          Some g)

let find_private_grad tape ~key =
  match tape.private_grads with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl key

(* --- operations ----------------------------------------------------------- *)

let dims (n : node) = (n.value.Tensor.rows, n.value.Tensor.cols)

(* Elementwise addition, with the bias-broadcast case: a [1 x m] operand is
   broadcast over the other operand's rows. At equal shapes (in particular
   both single rows) this is exactly the historical elementwise add. *)
let add tape a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> cb then invalid_arg "Autodiff.add: column mismatch";
  if ra = rb then begin
    let value = alloc tape ra ca in
    Tensor.add_into a.value b.value ~out:value;
    let rec n =
      lazy
        (record tape value (fun () ->
             let g = (Lazy.force n).grad in
             Tensor.accumulate a.grad g;
             Tensor.accumulate b.grad g))
    in
    Lazy.force n
  end
  else if rb = 1 then begin
    let value = alloc tape ra ca in
    Tensor.add_bias_into ~out:value a.value b.value;
    let rec n =
      lazy
        (record tape value (fun () ->
             let g = (Lazy.force n).grad in
             Tensor.accumulate a.grad g;
             Tensor.sum_rows_acc ~acc:b.grad g))
    in
    Lazy.force n
  end
  else if ra = 1 then begin
    let value = alloc tape rb ca in
    Tensor.add_bias_into ~out:value b.value a.value;
    let rec n =
      lazy
        (record tape value (fun () ->
             let g = (Lazy.force n).grad in
             Tensor.sum_rows_acc ~acc:a.grad g;
             Tensor.accumulate b.grad g))
    in
    Lazy.force n
  end
  else invalid_arg "Autodiff.add: row mismatch"

let sub tape a b =
  if dims a <> dims b then invalid_arg "Autodiff.sub: shape mismatch";
  let value = alloc tape a.value.Tensor.rows a.value.Tensor.cols in
  Tensor.sub_into a.value b.value ~out:value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.accumulate a.grad g;
           Tensor.accumulate_scaled b.grad (-1.0) g))
  in
  Lazy.force n

let mul tape a b =
  if dims a <> dims b then invalid_arg "Autodiff.mul: shape mismatch";
  let value = alloc tape a.value.Tensor.rows a.value.Tensor.cols in
  Tensor.mul_into a.value b.value ~out:value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.mul_acc a.grad g b.value;
           Tensor.mul_acc b.grad g a.value))
  in
  Lazy.force n

let scale tape k a =
  let value = alloc tape a.value.Tensor.rows a.value.Tensor.cols in
  Tensor.map_into (fun x -> k *. x) a.value ~out:value;
  let rec n =
    lazy
      (record tape value (fun () ->
           Tensor.accumulate_scaled a.grad k (Lazy.force n).grad))
  in
  Lazy.force n

(* batched matrix product: [rows x n] . [n x m]; dL/dx = g . w^T accumulates
   ascending k and dL/dw = x^T . g accumulates ascending r, matching the
   historical mat_vec / outer gradient kernels element for element. *)
let matmul tape x w =
  if x.value.Tensor.cols <> w.value.Tensor.rows then
    invalid_arg "Autodiff.matmul: inner dimension mismatch";
  let value = alloc tape x.value.Tensor.rows w.value.Tensor.cols in
  Tensor.matmul_into ~out:value x.value w.value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.matmul_nt_acc ~acc:x.grad g w.value;
           Tensor.matmul_tn_acc ~acc:w.grad x.value g))
  in
  Lazy.force n

(* row vector times matrix (historical name; now any row batch) *)
let vec_mat = matmul

let sigmoid tape a =
  let value = alloc tape a.value.Tensor.rows a.value.Tensor.cols in
  Tensor.sigmoid_into a.value ~out:value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.sigmoid_grad_acc ~acc:a.grad ~value ~grad:g))
  in
  Lazy.force n

let tanh_ tape a =
  let value = alloc tape a.value.Tensor.rows a.value.Tensor.cols in
  Tensor.tanh_into a.value ~out:value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.tanh_grad_acc ~acc:a.grad ~value ~grad:g))
  in
  Lazy.force n

(* row-wise concatenation: out.(r) = a.(r) ++ b.(r) *)
let concat tape a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ra <> rb then invalid_arg "Autodiff.concat: row mismatch";
  let value = alloc tape ra (ca + cb) in
  Tensor.concat_cols_into ~out:value a.value b.value;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           Tensor.accumulate_cols ~dst:a.grad g ~start:0;
           Tensor.accumulate_cols ~dst:b.grad g ~start:ca))
  in
  Lazy.force n

(* select a row of a parameter matrix (embedding lookup); the value is a
   zero-copy view *)
let row tape m i =
  let value = Tensor.row m.value i in
  let cols = value.Tensor.cols in
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           let mg = m.grad in
           let base = mg.Tensor.off + (i * cols) in
           for j = 0 to cols - 1 do
             mg.Tensor.data.(base + j) <-
               mg.Tensor.data.(base + j) +. g.Tensor.data.(g.Tensor.off + j)
           done))
  in
  Lazy.force n

(* batched embedding gather: out.(r) = m.(ids.(r)) *)
let rows tape m (ids : int array) =
  let b = Array.length ids in
  let cols = m.value.Tensor.cols in
  Array.iter
    (fun i ->
      if i < 0 || i >= m.value.Tensor.rows then
        invalid_arg "Autodiff.rows: index out of bounds")
    ids;
  let value = alloc tape b cols in
  let mv = m.value in
  for r = 0 to b - 1 do
    Array.blit mv.Tensor.data (mv.Tensor.off + (ids.(r) * cols)) value.Tensor.data
      (value.Tensor.off + (r * cols))
      cols
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           let mg = m.grad in
           for r = 0 to b - 1 do
             let base = mg.Tensor.off + (ids.(r) * cols) in
             let gbase = g.Tensor.off + (r * cols) in
             for j = 0 to cols - 1 do
               Array.unsafe_set mg.Tensor.data (base + j)
                 (Array.unsafe_get mg.Tensor.data (base + j)
                 +. Array.unsafe_get g.Tensor.data (gbase + j))
             done
           done))
  in
  Lazy.force n

let dot tape a b =
  let value = alloc tape 1 1 in
  Tensor.set value 0 0 (Tensor.dot a.value b.value);
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = Tensor.get (Lazy.force n).grad 0 0 in
           Tensor.accumulate_scaled a.grad g b.value;
           Tensor.accumulate_scaled b.grad g a.value))
  in
  Lazy.force n

(* batched inner product: out.(r) = a.(r) . b.(r), a [rows x 1] node *)
let row_dot tape a b =
  if dims a <> dims b then invalid_arg "Autodiff.row_dot: shape mismatch";
  let rws, cols = dims a in
  let value = alloc tape rws 1 in
  for r = 0 to rws - 1 do
    let s = ref 0.0 in
    for j = 0 to cols - 1 do
      s := !s +. (Tensor.get a.value r j *. Tensor.get b.value r j)
    done;
    Tensor.set value r 0 !s
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           for r = 0 to rws - 1 do
             let gr = Tensor.get g r 0 in
             for j = 0 to cols - 1 do
               Tensor.set a.grad r j
                 (Tensor.get a.grad r j +. (gr *. Tensor.get b.value r j))
             done;
             for j = 0 to cols - 1 do
               Tensor.set b.grad r j
                 (Tensor.get b.grad r j +. (gr *. Tensor.get a.value r j))
             done
           done))
  in
  Lazy.force n

(* Pack T per-step [rows x 1] score nodes into one [rows x T] node; positions
   at or beyond a row's length hold [neg_infinity] so the downstream softmax
   assigns them zero weight and their gradient is dropped. *)
let pack_cols tape ~rows:rws ?lengths (scores : node list) =
  let t_max = List.length scores in
  (match lengths with
  | Some lens when Array.length lens <> rws ->
      invalid_arg "Autodiff.pack_cols: lengths/rows mismatch"
  | _ -> ());
  let active r t =
    match lengths with None -> true | Some lens -> t < lens.(r)
  in
  List.iter
    (fun s ->
      if dims s <> (rws, 1) then invalid_arg "Autodiff.pack_cols: score shape")
    scores;
  let value = alloc tape rws t_max in
  List.iteri
    (fun t s ->
      for r = 0 to rws - 1 do
        Tensor.set value r t
          (if active r t then Tensor.get s.value r 0 else neg_infinity)
      done)
    scores;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           List.iteri
             (fun t s ->
               for r = 0 to rws - 1 do
                 if active r t then
                   Tensor.set s.grad r 0 (Tensor.get s.grad r 0 +. Tensor.get g r t)
               done)
             scores))
  in
  Lazy.force n

(* Fused attention scores: one [rows x T] packed score node over T per-step
   encoder states, replacing the historical per-step row_dot nodes plus
   pack_cols. value.(r).(t) is dot(states_t.(r), query.(r)) for
   [t < lengths.(r)] and [neg_infinity] otherwise (zero weight downstream,
   no gradient). Bitwise-compatible with the node chain it replaces: each
   dot accumulates ascending j, and backward accumulates the query gradient
   in descending t -- the tape order of the per-step nodes. Masked
   positions' dots are skipped outright (their value was discarded and
   their gradient was zero), which removes the attention cost of padded
   source positions. *)
let attention_scores tape ?lengths (states : node array) query =
  let rws, cols = dims query in
  let tmax = Array.length states in
  Array.iter
    (fun s ->
      if dims s <> (rws, cols) then invalid_arg "Autodiff.attention_scores: state shape")
    states;
  (match lengths with
  | Some l when Array.length l <> rws ->
      invalid_arg "Autodiff.attention_scores: lengths/rows mismatch"
  | _ -> ());
  let active r t = match lengths with None -> true | Some l -> t < l.(r) in
  let value = alloc tape rws tmax in
  let qv = query.value in
  for t = 0 to tmax - 1 do
    let sv = states.(t).value in
    for r = 0 to rws - 1 do
      if active r t then begin
        let qbase = qv.Tensor.off + (r * cols) in
        let sbase = sv.Tensor.off + (r * cols) in
        let s = ref 0.0 in
        for j = 0 to cols - 1 do
          s :=
            !s
            +. (Array.unsafe_get sv.Tensor.data (sbase + j)
               *. Array.unsafe_get qv.Tensor.data (qbase + j))
        done;
        Array.unsafe_set value.Tensor.data
          (value.Tensor.off + (r * tmax) + t)
          !s
      end
      else
        Array.unsafe_set value.Tensor.data
          (value.Tensor.off + (r * tmax) + t)
          neg_infinity
    done
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           let qg = query.grad in
           for t = tmax - 1 downto 0 do
             let sv = states.(t).value and sg = states.(t).grad in
             for r = 0 to rws - 1 do
               if active r t then begin
                 let gr = Array.unsafe_get g.Tensor.data (g.Tensor.off + (r * tmax) + t) in
                 let qvb = qv.Tensor.off + (r * cols) in
                 let qgb = qg.Tensor.off + (r * cols) in
                 let svb = sv.Tensor.off + (r * cols) in
                 let sgb = sg.Tensor.off + (r * cols) in
                 for j = 0 to cols - 1 do
                   Array.unsafe_set sg.Tensor.data (sgb + j)
                     (Array.unsafe_get sg.Tensor.data (sgb + j)
                     +. (gr *. Array.unsafe_get qv.Tensor.data (qvb + j)))
                 done;
                 for j = 0 to cols - 1 do
                   Array.unsafe_set qg.Tensor.data (qgb + j)
                     (Array.unsafe_get qg.Tensor.data (qgb + j)
                     +. (gr *. Array.unsafe_get sv.Tensor.data (svb + j)))
                 done
               end
             done
           done))
  in
  Lazy.force n

(* Fused attention context: value.(r) = sum over t of
   weights.(r).(t) * states_t.(r), accumulated in ascending t starting from
   the t = 0 term -- exactly the historical col / row_scale / add chain's
   per-element order (including the zero-weight terms of masked positions,
   which it still adds so values stay bitwise identical). Backward walks t
   descending, accumulating into each state first and then the weight
   column, as the chain's tape replay did. *)
let attention_context tape (weights : node) (states : node array) =
  let tmax = Array.length states in
  if tmax = 0 then invalid_arg "Autodiff.attention_context: no states";
  let rws, cols = dims states.(0) in
  if dims weights <> (rws, tmax) then
    invalid_arg "Autodiff.attention_context: weights shape";
  Array.iter
    (fun s ->
      if dims s <> (rws, cols) then invalid_arg "Autodiff.attention_context: state shape")
    states;
  let wv = weights.value in
  let value = alloc tape rws cols in
  for r = 0 to rws - 1 do
    let wbase = wv.Tensor.off + (r * tmax) in
    let obase = value.Tensor.off + (r * cols) in
    let s0 = states.(0).value in
    let w0 = Array.unsafe_get wv.Tensor.data wbase in
    let sbase = s0.Tensor.off + (r * cols) in
    for j = 0 to cols - 1 do
      Array.unsafe_set value.Tensor.data (obase + j)
        (w0 *. Array.unsafe_get s0.Tensor.data (sbase + j))
    done;
    for t = 1 to tmax - 1 do
      let sv = states.(t).value in
      let wt = Array.unsafe_get wv.Tensor.data (wbase + t) in
      (* masked positions carry weight exactly 0.0; their terms are +/-0.0
         and adding them never changes a finite accumulator, so skip them
         (only a -0.0 accumulator could tell, and batch-1 rows have no
         masked positions at all) *)
      if wt <> 0.0 then begin
        let sbase = sv.Tensor.off + (r * cols) in
        for j = 0 to cols - 1 do
          Array.unsafe_set value.Tensor.data (obase + j)
            (Array.unsafe_get value.Tensor.data (obase + j)
            +. (wt *. Array.unsafe_get sv.Tensor.data (sbase + j)))
        done
      end
    done
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           let wg = weights.grad in
           for t = tmax - 1 downto 0 do
             let sv = states.(t).value and sg = states.(t).grad in
             for r = 0 to rws - 1 do
               let wt = Array.unsafe_get wv.Tensor.data (wv.Tensor.off + (r * tmax) + t) in
               (* a masked position (weight exactly 0.0) passes no gradient
                  to its state (+/-0.0 terms), and its own weight gradient
                  is annihilated by the softmax backward's p = 0 factor --
                  skip the whole row-position *)
               if wt <> 0.0 then begin
                 let gbase = g.Tensor.off + (r * cols) in
                 let svb = sv.Tensor.off + (r * cols) in
                 let sgb = sg.Tensor.off + (r * cols) in
                 for j = 0 to cols - 1 do
                   Array.unsafe_set sg.Tensor.data (sgb + j)
                     (Array.unsafe_get sg.Tensor.data (sgb + j)
                     +. (wt *. Array.unsafe_get g.Tensor.data (gbase + j)))
                 done;
                 let acc = ref 0.0 in
                 for j = 0 to cols - 1 do
                   acc :=
                     !acc
                     +. (Array.unsafe_get g.Tensor.data (gbase + j)
                        *. Array.unsafe_get sv.Tensor.data (svb + j))
                 done;
                 let wi = wg.Tensor.off + (r * tmax) + t in
                 Array.unsafe_set wg.Tensor.data wi
                   (Array.unsafe_get wg.Tensor.data wi +. !acc)
               end
             done
           done))
  in
  Lazy.force n

(* column selection: out.(r) = [| w.(r).(i) |] *)
let col tape w i =
  let rws, cols = dims w in
  if i < 0 || i >= cols then invalid_arg "Autodiff.col: index out of bounds";
  let value = alloc tape rws 1 in
  for r = 0 to rws - 1 do
    Tensor.set value r 0 (Tensor.get w.value r i)
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           for r = 0 to rws - 1 do
             Tensor.set w.grad r i (Tensor.get w.grad r i +. Tensor.get g r 0)
           done))
  in
  Lazy.force n

(* per-row scaling: out.(r) = s.(r) * x.(r) for a [rows x 1] scale node.
   Backward accumulates into [x] first, then [s] -- the historical order of
   the attention "scaled" node. *)
let row_scale tape s x =
  let rws, cols = dims x in
  if dims s <> (rws, 1) then invalid_arg "Autodiff.row_scale: scale shape";
  let value = alloc tape rws cols in
  for r = 0 to rws - 1 do
    let sr = Tensor.get s.value r 0 in
    for j = 0 to cols - 1 do
      Tensor.set value r j (sr *. Tensor.get x.value r j)
    done
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           for r = 0 to rws - 1 do
             let sr = Tensor.get s.value r 0 in
             for j = 0 to cols - 1 do
               Tensor.set x.grad r j
                 (Tensor.get x.grad r j +. (sr *. Tensor.get g r j))
             done;
             let acc = ref 0.0 in
             for j = 0 to cols - 1 do
               acc := !acc +. (Tensor.get g r j *. Tensor.get x.value r j)
             done;
             Tensor.set s.grad r 0 (Tensor.get s.grad r 0 +. !acc)
           done))
  in
  Lazy.force n

(* Zero-copy view of the first [k] rows (prefix trimming of padded batches:
   when a step's active rows form a leading prefix, downstream ops run on
   [k] rows instead of the full batch). Both the value and the gradient
   alias the parent's storage, so consumers accumulate straight into the
   parent's gradient rows and backward is a no-op. At [k = rows] the parent
   itself is returned, so full batches (in particular single rows) record
   nothing. *)
let rows_prefix tape a k =
  let rws, _cols = dims a in
  if k < 1 || k > rws then invalid_arg "Autodiff.rows_prefix: bad row count";
  if k = rws then a
  else
    record_with_grad tape
      { a.value with Tensor.rows = k }
      ~grad:{ a.grad with Tensor.rows = k }
      (fun () -> ())

(* [base] with its first [top.rows] rows replaced by [top]; the suffix rows
   pass through. Backward routes each row's gradient to the parent that
   supplied it. This scatters a prefix-trimmed step result back into the
   full-batch state (the suffix rows carry their previous state, exactly as
   a masked select would). Returns [top] itself at equal row counts. *)
let overlay_rows tape ~top ~base =
  let rt, ct = dims top and rb, cb = dims base in
  if ct <> cb || rt > rb then invalid_arg "Autodiff.overlay_rows: shape mismatch";
  if rt = rb then top
  else begin
    let value = alloc tape rb cb in
    Array.blit top.value.Tensor.data top.value.Tensor.off value.Tensor.data
      value.Tensor.off (rt * ct);
    Array.blit base.value.Tensor.data
      (base.value.Tensor.off + (rt * cb))
      value.Tensor.data
      (value.Tensor.off + (rt * cb))
      ((rb - rt) * cb);
    let rec n =
      lazy
        (record tape value (fun () ->
             let g = (Lazy.force n).grad in
             Tensor.accumulate top.grad { g with Tensor.rows = rt };
             Tensor.accumulate
               { base.grad with
                 Tensor.off = base.grad.Tensor.off + (rt * cb);
                 rows = rb - rt }
               { g with Tensor.off = g.Tensor.off + (rt * cb); rows = rb - rt }))
    in
    Lazy.force n
  end

(* acc + top where [top] covers only the first [top.rows] rows of [acc]; the
   remaining rows pass [acc] through unchanged. Per-element addition order on
   the covered prefix matches {!add} exactly, and at equal row counts this IS
   {!add} -- so accumulating prefix-trimmed per-row losses is bitwise the
   historical accumulation wherever rows exist. *)
let add_rows_prefix tape acc top =
  let ra, ca = dims acc and rt, ct = dims top in
  if ct <> ca || rt > ra then invalid_arg "Autodiff.add_rows_prefix: shape mismatch";
  if rt = ra then add tape acc top
  else begin
    let value = alloc tape ra ca in
    Tensor.add_into
      { acc.value with Tensor.rows = rt }
      top.value
      ~out:{ value with Tensor.rows = rt };
    Array.blit acc.value.Tensor.data
      (acc.value.Tensor.off + (rt * ca))
      value.Tensor.data
      (value.Tensor.off + (rt * ca))
      ((ra - rt) * ca);
    let rec n =
      lazy
        (record tape value (fun () ->
             let g = (Lazy.force n).grad in
             Tensor.accumulate acc.grad g;
             Tensor.accumulate top.grad { g with Tensor.rows = rt }))
    in
    Lazy.force n
  end

(* per-row selection between two same-shape nodes; gradients flow only to the
   selected parent. Used to carry LSTM state through padded timesteps. *)
let masked_select tape (mask : bool array) a b =
  if dims a <> dims b then invalid_arg "Autodiff.masked_select: shape mismatch";
  let rws, cols = dims a in
  if Array.length mask <> rws then invalid_arg "Autodiff.masked_select: mask length";
  let value = alloc tape rws cols in
  for r = 0 to rws - 1 do
    let src = if mask.(r) then a.value else b.value in
    for j = 0 to cols - 1 do
      Tensor.set value r j (Tensor.get src r j)
    done
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           for r = 0 to rws - 1 do
             let dst = if mask.(r) then a.grad else b.grad in
             for j = 0 to cols - 1 do
               Tensor.set dst r j (Tensor.get dst r j +. Tensor.get g r j)
             done
           done))
  in
  Lazy.force n

(* dropout with inverted scaling; identity when [p] is 0 or training is off *)
let dropout tape rng ~p ~training a =
  if (not training) || p <= 0.0 then a
  else begin
    let rws, cols = dims a in
    let mask = alloc tape rws cols in
    Tensor.map_into
      (fun _ -> if Genie_util.Rng.flip rng p then 0.0 else 1.0 /. (1.0 -. p))
      a.value ~out:mask;
    let value = alloc tape rws cols in
    Tensor.mul_into a.value mask ~out:value;
    let rec n =
      lazy
        (record tape value (fun () ->
             Tensor.mul_acc a.grad (Lazy.force n).grad mask))
    in
    Lazy.force n
  end

(* Row-batched dropout: row [r] draws its mask from [rngs.(r)] so each
   example's mask depends only on its own stream, never on batch composition.
   Inactive (padded) rows draw nothing and pass through unscaled. *)
let dropout_rows tape (rngs : Genie_util.Rng.t array) ?active ~p ~training a =
  if (not training) || p <= 0.0 then a
  else begin
    let rws, cols = dims a in
    if Array.length rngs <> rws then invalid_arg "Autodiff.dropout_rows: rngs length";
    let is_active =
      match active with
      | None -> fun _ -> true
      | Some m ->
          if Array.length m <> rws then
            invalid_arg "Autodiff.dropout_rows: active length";
          fun r -> m.(r)
    in
    let mask = alloc tape rws cols in
    let md = mask.Tensor.data in
    let keep = 1.0 /. (1.0 -. p) in
    for r = 0 to rws - 1 do
      let base = mask.Tensor.off + (r * cols) in
      if is_active r then begin
        let rng = rngs.(r) in
        for j = 0 to cols - 1 do
          Array.unsafe_set md (base + j)
            (if Genie_util.Rng.flip rng p then 0.0 else keep)
        done
      end
      else
        for j = 0 to cols - 1 do
          Array.unsafe_set md (base + j) 1.0
        done
    done;
    let value = alloc tape rws cols in
    Tensor.mul_into a.value mask ~out:value;
    let rec n =
      lazy
        (record tape value (fun () ->
             Tensor.mul_acc a.grad (Lazy.force n).grad mask))
    in
    Lazy.force n
  end

(* Softmax over a vector fused with negative log-likelihood of [target].
   Returns (loss scalar node, probability array). *)
let softmax_nll tape a ~target =
  if a.value.Tensor.rows <> 1 then invalid_arg "Autodiff.softmax_nll: expected one row";
  let cols = a.value.Tensor.cols in
  if target < 0 || target >= cols then invalid_arg "Autodiff.softmax_nll: target";
  let x = Tensor.to_array a.value in
  let m = Array.fold_left Float.max neg_infinity x in
  let exps = Array.map (fun v -> exp (v -. m)) x in
  let z = Array.fold_left ( +. ) 0.0 exps in
  let probs = Array.map (fun e -> e /. z) exps in
  let loss = -.log (Float.max 1e-12 probs.(target)) in
  let value = alloc tape 1 1 in
  Tensor.set value 0 0 loss;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = Tensor.get (Lazy.force n).grad 0 0 in
           Array.iteri
             (fun i p ->
               let delta = if i = target then p -. 1.0 else p in
               Tensor.set a.grad 0 i (Tensor.get a.grad 0 i +. (g *. delta)))
             probs))
  in
  (Lazy.force n, probs)

(* Row-wise softmax probabilities as a differentiable node (attention
   weights). A row whose maximum is [neg_infinity] (fully masked) yields all
   zeros and receives no gradient. *)
let softmax tape a =
  let rws, cols = dims a in
  let value = alloc tape rws cols in
  let av = a.value in
  for r = 0 to rws - 1 do
    let abase = av.Tensor.off + (r * cols) in
    let obase = value.Tensor.off + (r * cols) in
    let m = ref neg_infinity in
    for j = 0 to cols - 1 do
      m := Float.max !m (Array.unsafe_get av.Tensor.data (abase + j))
    done;
    if !m = neg_infinity then
      for j = 0 to cols - 1 do
        Array.unsafe_set value.Tensor.data (obase + j) 0.0
      done
    else begin
      let z = ref 0.0 in
      for j = 0 to cols - 1 do
        let x = Array.unsafe_get av.Tensor.data (abase + j) in
        (* masked (-inf) entries exponentiate to exactly 0.0; writing the
           constant skips the exp call without changing a bit *)
        let e = if x = neg_infinity then 0.0 else exp (x -. !m) in
        Array.unsafe_set value.Tensor.data (obase + j) e;
        z := !z +. e
      done;
      for j = 0 to cols - 1 do
        Array.unsafe_set value.Tensor.data (obase + j)
          (Array.unsafe_get value.Tensor.data (obase + j) /. !z)
      done
    end
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = (Lazy.force n).grad in
           let ag = a.grad in
           (* dL/dx_i = p_i * (g_i - sum_j g_j p_j), rows independent *)
           for r = 0 to rws - 1 do
             let gbase = g.Tensor.off + (r * cols) in
             let vbase = value.Tensor.off + (r * cols) in
             let abase = ag.Tensor.off + (r * cols) in
             let dotgp = ref 0.0 in
             for j = 0 to cols - 1 do
               dotgp :=
                 !dotgp
                 +. (Array.unsafe_get g.Tensor.data (gbase + j)
                    *. Array.unsafe_get value.Tensor.data (vbase + j))
             done;
             for i = 0 to cols - 1 do
               let pi = Array.unsafe_get value.Tensor.data (vbase + i) in
               Array.unsafe_set ag.Tensor.data (abase + i)
                 (Array.unsafe_get ag.Tensor.data (abase + i)
                 +. (pi *. (Array.unsafe_get g.Tensor.data (gbase + i) -. !dotgp)))
             done
           done))
  in
  Lazy.force n

(* Mixture negative log-likelihood for the pointer-generator: the probability
   of the target token is  gate * p_vocab(target) + (1 - gate) * p_copy  where
   [p_copy] is the attention mass on source positions equal to the target.
   [gate], [vocab_probs] and [attention] are nodes; [copy_positions] are the
   source indices whose token equals the target. *)
let pointer_nll tape ~gate ~vocab_probs ~attention ~target ~copy_positions =
  let pv_len = vocab_probs.value.Tensor.cols in
  let g = Tensor.get gate.value 0 0 in
  let p_vocab =
    if target >= 0 && target < pv_len then Tensor.get vocab_probs.value 0 target
    else 0.0
  in
  let p_copy =
    List.fold_left
      (fun acc i -> acc +. Tensor.get attention.value 0 i)
      0.0 copy_positions
  in
  let p = Float.max 1e-12 ((g *. p_vocab) +. ((1.0 -. g) *. p_copy)) in
  let loss = -.log p in
  let value = alloc tape 1 1 in
  Tensor.set value 0 0 loss;
  let rec n =
    lazy
      (record tape value (fun () ->
           let go = Tensor.get (Lazy.force n).grad 0 0 in
           let dp = -.go /. p in
           (* gate *)
           Tensor.set gate.grad 0 0
             (Tensor.get gate.grad 0 0 +. (dp *. (p_vocab -. p_copy)));
           (* vocab probs *)
           if target >= 0 && target < pv_len then
             Tensor.set vocab_probs.grad 0 target
               (Tensor.get vocab_probs.grad 0 target +. (dp *. g));
           (* attention *)
           List.iter
             (fun i ->
               Tensor.set attention.grad 0 i
                 (Tensor.get attention.grad 0 i +. (dp *. (1.0 -. g))))
             copy_positions))
  in
  Lazy.force n

(* Row-batched pointer-generator NLL: one decode step for a whole mini-batch.
   Row [r] contributes  -log (gate_r * p_vocab_r + (1 - gate_r) * p_copy_r);
   inactive (padded) rows contribute exactly 0 and receive no gradient. The
   per-row arithmetic replays [pointer_nll] exactly, so a one-row batch is
   bitwise identical to the scalar op. *)
let pointer_nll_rows tape ~gate ~vocab_probs ~attention ~targets ~copy_positions
    ~active =
  let rws = gate.value.Tensor.rows in
  if gate.value.Tensor.cols <> 1 then invalid_arg "Autodiff.pointer_nll_rows: gate shape";
  if
    vocab_probs.value.Tensor.rows <> rws
    || attention.value.Tensor.rows <> rws
    || Array.length targets <> rws
    || Array.length copy_positions <> rws
    || Array.length active <> rws
  then invalid_arg "Autodiff.pointer_nll_rows: row mismatch";
  let pv_len = vocab_probs.value.Tensor.cols in
  let gates = Array.make rws 0.0 in
  let p_vocabs = Array.make rws 0.0 in
  let p_copies = Array.make rws 0.0 in
  let ps = Array.make rws 1.0 in
  let value = alloc tape rws 1 in
  for r = 0 to rws - 1 do
    if active.(r) then begin
      let g = Tensor.get gate.value r 0 in
      let target = targets.(r) in
      let p_vocab =
        if target >= 0 && target < pv_len then Tensor.get vocab_probs.value r target
        else 0.0
      in
      let p_copy =
        List.fold_left
          (fun acc i -> acc +. Tensor.get attention.value r i)
          0.0 copy_positions.(r)
      in
      let p = Float.max 1e-12 ((g *. p_vocab) +. ((1.0 -. g) *. p_copy)) in
      gates.(r) <- g;
      p_vocabs.(r) <- p_vocab;
      p_copies.(r) <- p_copy;
      ps.(r) <- p;
      Tensor.set value r 0 (-.log p)
    end
    else Tensor.set value r 0 0.0
  done;
  let rec n =
    lazy
      (record tape value (fun () ->
           let gout = (Lazy.force n).grad in
           for r = 0 to rws - 1 do
             if active.(r) then begin
               let go = Tensor.get gout r 0 in
               let dp = -.go /. ps.(r) in
               let g = gates.(r) in
               Tensor.set gate.grad r 0
                 (Tensor.get gate.grad r 0 +. (dp *. (p_vocabs.(r) -. p_copies.(r))));
               let target = targets.(r) in
               if target >= 0 && target < pv_len then
                 Tensor.set vocab_probs.grad r target
                   (Tensor.get vocab_probs.grad r target +. (dp *. g));
               List.iter
                 (fun i ->
                   Tensor.set attention.grad r i
                     (Tensor.get attention.grad r i +. (dp *. (1.0 -. g))))
                 copy_positions.(r)
             end
           done))
  in
  Lazy.force n

let sum_scalars tape (xs : node list) =
  match xs with
  | [] -> leaf tape (Tensor.vector [| 0.0 |])
  | [ x ] -> x
  | x :: rest -> List.fold_left (fun acc y -> add tape acc y) x rest

(* Sum of every element, as a 1 x 1 node; elements are accumulated in
   row-major order. Seeds each row of a per-row loss column with gradient 1,
   exactly as per-example backward calls did. *)
let sum_all tape a =
  let rws, cols = dims a in
  let value = alloc tape 1 1 in
  let s = ref 0.0 in
  for r = 0 to rws - 1 do
    for j = 0 to cols - 1 do
      s := !s +. Tensor.get a.value r j
    done
  done;
  Tensor.set value 0 0 !s;
  let rec n =
    lazy
      (record tape value (fun () ->
           let g = Tensor.get (Lazy.force n).grad 0 0 in
           for r = 0 to rws - 1 do
             for j = 0 to cols - 1 do
               Tensor.set a.grad r j (Tensor.get a.grad r j +. g)
             done
           done))
  in
  Lazy.force n

(* Runs backpropagation from [loss] (a scalar node). *)
let backward tape (loss : node) =
  loss.grad.Tensor.data.(loss.grad.Tensor.off) <- 1.0;
  List.iter (fun n -> n.back ()) tape.nodes
(* nodes are stored most-recent first, which is reverse topological order *)
