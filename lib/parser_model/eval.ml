(* Evaluation metrics (paper section 5).

   Program accuracy considers the result correct only if the output has the
   correct functions, parameters, joins and filters -- equivalent to the
   output matching the canonicalized annotated program exactly. Test sentences
   may carry several valid annotations. The error-analysis breakdown of
   section 5.5 (syntax / primitive-vs-compound / device / function accuracy)
   is also computed here. *)

open Genie_thingtalk

type metrics = {
  n : int;
  program_accuracy : float;
  function_accuracy : float; (* correct multiset of functions *)
  device_accuracy : float; (* correct set of skills *)
  prim_compound_accuracy : float; (* primitive vs compound identified *)
  syntax_ok : float; (* parses and type-checks *)
  wrong_param_value : float; (* right functions/filters, wrong copied value *)
  slot_f1 : float; (* micro-averaged (param, value) slot F1 *)
}

let zero_metrics =
  { n = 0; program_accuracy = 0.0; function_accuracy = 0.0; device_accuracy = 0.0;
    prim_compound_accuracy = 0.0; syntax_ok = 0.0; wrong_param_value = 0.0;
    slot_f1 = 0.0 }

let functions_multiset p =
  List.sort compare (List.map Ast.Fn.to_string (Ast.program_functions p))

let devices_set p =
  List.sort_uniq compare (List.map (fun f -> f.Ast.Fn.cls) (Ast.program_functions p))

(* The program with parameter values erased, for the wrong-value diagnostic. *)
let erase_values lib p =
  Canonical.normalize lib (Ast.map_constants (fun _ _ -> Value.Undefined) p)

(* The (param name, rendered value) multiset of a program, sorted. *)
let slots_of p =
  List.sort compare
    (List.map
       (fun (name, v) -> (name, Value.to_string v))
       (Ast.program_constants p))

(* Multiset intersection size of two sorted slot lists. *)
let rec slots_inter a b =
  match (a, b) with
  | [], _ | _, [] -> 0
  | x :: a', y :: b' ->
      let c = compare (x : string * string) y in
      if c = 0 then 1 + slots_inter a' b'
      else if c < 0 then slots_inter a' b
      else slots_inter a b'

(* Per-example slot counts (intersection, predicted, gold) against the
   best-matching annotation. All integers — the corpus-level micro F1 is
   computed once from the summed counts, so shard sums are exactly
   order-independent (no float accumulation anywhere). Per-example F1 is
   2i/(p+g) (1 when both sides are empty); annotations are compared by
   cross-multiplied rationals with a first-wins tie-break. *)
let slot_counts ~(gold : Ast.program list) (predicted : Ast.program option) =
  let pred_slots = match predicted with None -> [] | Some p -> slots_of p in
  let np = List.length pred_slots in
  let score g =
    let gs = slots_of g in
    let ng = List.length gs in
    let i = slots_inter pred_slots gs in
    (* f1 = 2i/(np+ng) as the rational (num, den); empty/empty is perfect *)
    let num, den = if np + ng = 0 then (1, 1) else (2 * i, np + ng) in
    ((num, den), (i, np, ng))
  in
  match gold with
  | [] -> (0, np, 0)
  | g0 :: rest ->
      let best =
        List.fold_left
          (fun (((bn, bd), _) as best) g ->
            let (((n, d), _) as cand) = score g in
            if n * bd > bn * d then cand else best)
          (score g0) rest
      in
      snd best

let evaluate_one lib ~(gold : Ast.program list) (predicted : Ast.program option) =
  let canon p = Canonical.canonical_string lib p in
  let gold_strs = List.map canon gold in
  match predicted with
  | None -> (false, false, false, false, false, false)
  | Some p ->
      let s = canon p in
      let correct = List.mem s gold_strs in
      let fn_ok = List.exists (fun g -> functions_multiset g = functions_multiset p) gold in
      let dev_ok = List.exists (fun g -> devices_set g = devices_set p) gold in
      let prim_ok = List.exists (fun g -> Ast.is_primitive g = Ast.is_primitive p) gold in
      let syntax = Typecheck.well_typed lib p in
      let wrong_value =
        (not correct)
        && List.exists (fun g -> canon (erase_values lib g) = canon (erase_values lib p)) gold
      in
      (correct, fn_ok, dev_ok, prim_ok, syntax, wrong_value)

(* --- integer count accumulation ---------------------------------------------

   Every metric is a ratio of integer counts; shards sum counts and the
   floats are computed once at the very end. Integer addition is
   associative, so the sharded driver is bitwise identical to the batched
   one at every worker count and shard size. *)

type counts = {
  c_n : int;
  c_acc : int;
  c_fn : int;
  c_dev : int;
  c_prim : int;
  c_syn : int;
  c_wrong : int;
  c_inter : int; (* slot multiset intersections *)
  c_pred : int; (* predicted slots *)
  c_gold : int; (* gold slots (best-matching annotation) *)
}

let zero_counts =
  { c_n = 0; c_acc = 0; c_fn = 0; c_dev = 0; c_prim = 0; c_syn = 0;
    c_wrong = 0; c_inter = 0; c_pred = 0; c_gold = 0 }

let add_counts a b =
  { c_n = a.c_n + b.c_n;
    c_acc = a.c_acc + b.c_acc;
    c_fn = a.c_fn + b.c_fn;
    c_dev = a.c_dev + b.c_dev;
    c_prim = a.c_prim + b.c_prim;
    c_syn = a.c_syn + b.c_syn;
    c_wrong = a.c_wrong + b.c_wrong;
    c_inter = a.c_inter + b.c_inter;
    c_pred = a.c_pred + b.c_pred;
    c_gold = a.c_gold + b.c_gold }

let count_chunk lib (examples : Genie_dataset.Example.t list)
    (predictions : Ast.program option list) : counts =
  List.fold_left2
    (fun c e predicted ->
      let gold = Genie_dataset.Example.all_programs e in
      let correct, fn_ok, dev_ok, prim_ok, syntax, wrong_value =
        evaluate_one lib ~gold predicted
      in
      let i, np, ng = slot_counts ~gold predicted in
      let b v = if v then 1 else 0 in
      { c_n = c.c_n + 1;
        c_acc = c.c_acc + b correct;
        c_fn = c.c_fn + b fn_ok;
        c_dev = c.c_dev + b dev_ok;
        c_prim = c.c_prim + b prim_ok;
        c_syn = c.c_syn + b syntax;
        c_wrong = c.c_wrong + b wrong_value;
        c_inter = c.c_inter + i;
        c_pred = c.c_pred + np;
        c_gold = c.c_gold + ng })
    zero_counts examples predictions

let metrics_of_counts (c : counts) : metrics =
  if c.c_n = 0 then zero_metrics
  else
    let f x = float_of_int x /. float_of_int c.c_n in
    { n = c.c_n;
      program_accuracy = f c.c_acc;
      function_accuracy = f c.c_fn;
      device_accuracy = f c.c_dev;
      prim_compound_accuracy = f c.c_prim;
      syntax_ok = f c.c_syn;
      wrong_param_value = f c.c_wrong;
      slot_f1 =
        (if c.c_pred + c.c_gold = 0 then 1.0
         else
           2.0 *. float_of_int c.c_inter
           /. float_of_int (c.c_pred + c.c_gold)) }

(* Scores a test set against predictions obtained in one batched pass (such
   as Aligner.predict_batch). Metrics are identical to the per-example
   driver as long as the batched predictor agrees with the per-example
   one. *)
let evaluate_batched lib
    (predict_batch : string list list -> Ast.program option list)
    (examples : Genie_dataset.Example.t list) : metrics =
  let n = List.length examples in
  if n = 0 then zero_metrics
  else begin
    let predictions =
      predict_batch (List.map (fun e -> e.Genie_dataset.Example.tokens) examples)
    in
    if List.length predictions <> n then
      invalid_arg "prediction count mismatch in Eval.evaluate_batched";
    metrics_of_counts (count_chunk lib examples predictions)
  end

let evaluate lib (predict : string list -> Ast.program option)
    (examples : Genie_dataset.Example.t list) : metrics =
  evaluate_batched lib (List.map predict) examples

(* Sharded evaluation: fixed-size shards of the test set fanned over a
   domain pool, each scored by one predict_batch call, merged in submission
   order (the synthesis-style ordered merge). Shard boundaries depend only
   on [shard_size], never on [workers], and the merge sums integers — so
   the accuracy table is bitwise identical at every worker count, including
   workers = 0 on the calling domain. *)
let evaluate_sharded ?(workers = 0) ?(shard_size = 32) lib
    (predict_batch : string list list -> Ast.program option list)
    (examples : Genie_dataset.Example.t list) : metrics =
  let shard_size = max 1 shard_size in
  let shards =
    let rec go acc = function
      | [] -> List.rev acc
      | rest ->
          let shard = List.filteri (fun i _ -> i < shard_size) rest in
          let rest' = List.filteri (fun i _ -> i >= shard_size) rest in
          go (shard :: acc) rest'
    in
    go [] examples
  in
  let chunk_counts =
    Genie_conc.Pool.map_list ~workers
      ~handler:(fun _slot shard ->
        let predictions =
          predict_batch
            (List.map (fun e -> e.Genie_dataset.Example.tokens) shard)
        in
        if List.length predictions <> List.length shard then
          invalid_arg "prediction count mismatch in Eval.evaluate_sharded";
        count_chunk lib shard predictions)
      shards
  in
  metrics_of_counts (List.fold_left add_counts zero_counts chunk_counts)

(* A Hash64 fold over the metric values' exact bit patterns: two metrics
   digest equal iff every float is bitwise identical. Pinned by
   test/golden/eval.digest (regold with EVAL_REGOLD=1). *)
let digest (m : metrics) : string =
  let module H = Genie_util.Hash64 in
  let h = H.int (H.string 0L "genie.eval") m.n in
  let h =
    List.fold_left
      (fun h x -> H.combine h (Int64.bits_of_float x))
      h
      [ m.program_accuracy; m.function_accuracy; m.device_accuracy;
        m.prim_compound_accuracy; m.syntax_ok; m.wrong_param_value;
        m.slot_f1 ]
  in
  H.to_hex h

(* mean +- half-range over several runs, as the paper reports *)
let mean_half_range (xs : float list) =
  match xs with
  | [] -> (0.0, 0.0)
  | xs ->
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let mn = List.fold_left Float.min infinity xs in
      let mx = List.fold_left Float.max neg_infinity xs in
      (mean, (mx -. mn) /. 2.0)

let pp_metrics fmt m =
  Format.fprintf fmt
    "n=%d acc=%.1f%% fn=%.1f%% dev=%.1f%% prim/comp=%.1f%% syntax=%.1f%% wrong-value=%.1f%% slot-f1=%.1f%%"
    m.n (100. *. m.program_accuracy) (100. *. m.function_accuracy)
    (100. *. m.device_accuracy)
    (100. *. m.prim_compound_accuracy)
    (100. *. m.syntax_ok) (100. *. m.wrong_param_value)
    (100. *. m.slot_f1)
