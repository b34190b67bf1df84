(* Program skeletons: the NN-token serialization of a program with its
   constant values replaced by typed slot markers (SLOT_0, SLOT_1, ...).

   The decoder predicts a skeleton and then fills the slots with values copied
   from the input sentence; this mirrors the pointer-generator decomposition
   of the MQAN model (generate program tokens from the vocabulary, copy
   parameter values from the context). *)

open Genie_thingtalk

(* What kind of value a slot holds, and its default (exemplar) value from the
   training data. *)
type slot = {
  marker : string; (* SLOT_k *)
  param : string; (* the parameter name the value fills *)
  exemplar : Value.t; (* the original value; supplies type and fallback *)
}

type t = {
  tokens : string list; (* serialized program with slot markers *)
  slots : slot list;
}

let key sk = String.concat " " sk.tokens

(* Values that are predicted as part of the skeleton rather than copied:
   booleans, enums (they carry function semantics such as on/off), undefined
   slots, and relative locations (home/work/here behave like keywords). *)
let is_slotted (v : Value.t) =
  match v with
  | Value.String _ | Value.Entity _ | Value.Number _ | Value.Measure _ | Value.Date _
  | Value.Time _ | Value.Currency _ -> true
  | Value.Location (Value.L_named _) -> true
  | Value.Location _ | Value.Boolean _ | Value.Enum _ | Value.Array _ | Value.Undefined ->
      false

(* Extracts the skeleton of [program]. Equal values share one marker (the
   serializer matches by value), which also means repeated values are filled
   consistently at decode time. *)
let of_program ?(options = Nn_syntax.default_options) lib (program : Ast.program) : t =
  let slots = ref [] in
  let next = ref 0 in
  let marker_for param v =
    match
      List.find_opt (fun s -> Value.equal s.exemplar v) !slots
    with
    | Some s -> s.marker
    | None ->
        let m = Printf.sprintf "SLOT_%d" !next in
        incr next;
        slots := !slots @ [ { marker = m; param; exemplar = v } ];
        m
  in
  (* first pass assigns markers in program order *)
  ignore
    (Ast.map_constants
       (fun param v ->
         if is_slotted v then ignore (marker_for param v);
         v)
       program);
  let entities = List.map (fun s -> (s.marker, s.exemplar)) !slots in
  let tokens = Nn_syntax.to_tokens ~options ~entities lib program in
  { tokens; slots = !slots }

(* Rebuilds a program from the skeleton and a filled value per slot. *)
let fill ?(options = Nn_syntax.default_options) lib (sk : t)
    (values : (string * Value.t) list) : Ast.program option =
  let entities =
    List.map
      (fun s ->
        match List.assoc_opt s.marker values with
        | Some v -> (s.marker, v)
        | None -> (s.marker, s.exemplar))
      sk.slots
  in
  match Nn_syntax.of_tokens ~options ~entities lib sk.tokens with
  | p -> Some p
  | exception Nn_syntax.Parse_error _ -> None
  | exception _ -> None

(* The "atoms" of a skeleton: the tokens that carry semantic content and are
   matched against sentence n-grams (function references, parameter heads,
   operators, structural keywords, enum values). *)
let structural_atoms =
  [ "now"; "monitor"; "edge"; "timer"; "attimer"; "notify"; "join"; "filter"; "agg";
    "max"; "min"; "sum"; "avg"; "count"; "new"; "not"; "or" ]

let comp_op_atoms = List.map Ast.comp_op_to_string Ast.all_comp_ops

let is_atom tok =
  Genie_util.Tok.starts_with ~prefix:"@" tok
  || Genie_util.Tok.starts_with ~prefix:"param:" tok
  || Genie_util.Tok.starts_with ~prefix:"enum:" tok
  || Genie_util.Tok.starts_with ~prefix:"unit:" tok
  || Genie_util.Tok.starts_with ~prefix:"location:" tok
  || List.mem tok structural_atoms
  || List.mem tok comp_op_atoms

let atoms sk = List.sort_uniq compare (List.filter is_atom sk.tokens)

let function_atoms sk =
  List.filter (fun t -> Genie_util.Tok.starts_with ~prefix:"@" t) (atoms sk)

(* A coarse complexity measure used as a decoding prior tie-breaker. *)
let size sk = List.length sk.tokens
