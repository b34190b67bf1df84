(* The flat token syntax predicted by the semantic parser (section 2.1).

   Numbers, dates and times identified in the input sentence are replaced by
   named constants (NUMBER_0, DATE_1, ...); free-form strings and named
   entities are serialized as multi-token quoted spans so individual words can
   be copied from the input.

   Two of the Table 3 ablations are implemented here as serializer options:
   [type_annotations] controls whether parameter tokens carry their type
   ("param:caption:String" vs "param:caption"); [keyword_params] switches
   between keyword parameters and positional parameters. *)

open Ast

type options = { type_annotations : bool; keyword_params : bool }

let default_options = { type_annotations = true; keyword_params = true }

(* Sentence-side named constants: slot token -> value. *)
type entities = (string * Value.t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- serialization ------------------------------------------------------- *)

let type_token (ty : Ttype.t) =
  match ty with
  | Ttype.Enum _ -> "Enum"
  | Ttype.Array t ->
      let rec base = function Ttype.Array t -> base t | t -> t in
      "Array(" ^ Ttype.to_string (base t) ^ ")"
  | t -> Ttype.to_string t

let find_slot (entities : entities) (v : Value.t) =
  List.find_map (fun (slot, v') -> if Value.equal v v' then Some slot else None) entities

(* quoted spans split on spaces only, so punctuation inside a value
   ("notes.txt") survives the round trip *)
let quoted_span s =
  ("\""
  :: List.filter (fun t -> t <> "")
       (String.split_on_char ' ' (String.lowercase_ascii s)))
  @ [ "\"" ]

let rec value_tokens ~entities (v : Value.t) : string list =
  match find_slot entities v with
  | Some slot -> [ slot ]
  | None -> (
      match v with
      | Value.String s -> quoted_span s
      | Value.Number n ->
          if Float.is_integer n then [ string_of_int (int_of_float n) ]
          else [ string_of_float n ]
      | Value.Boolean b -> [ string_of_bool b ]
      | Value.Measure terms ->
          List.concat
            (List.mapi
               (fun i (n, u) ->
                 let num =
                   match find_slot entities (Value.Number n) with
                   | Some slot -> slot
                   | None -> List.hd (value_tokens ~entities:[] (Value.Number n))
                 in
                 (if i = 0 then [] else [ "+" ]) @ [ num; "unit:" ^ u ])
               terms)
      | Value.Date d -> date_tokens ~entities d
      | Value.Time (h, m) -> [ Printf.sprintf "time:%d:%d" h m ]
      | Value.Location (Value.L_relative r) -> [ "location:" ^ r ]
      | Value.Location (Value.L_named n) -> ("location:" :: quoted_span n)
      | Value.Location (Value.L_absolute (lat, lon)) ->
          [ Printf.sprintf "location:%g:%g" lat lon ]
      | Value.Currency (n, code) ->
          let num = List.hd (value_tokens ~entities (Value.Number n)) in
          [ "currency:" ^ code; num ]
      | Value.Enum e -> [ "enum:" ^ e ]
      | Value.Entity { ty; value; display = _ } -> quoted_span value @ [ "^^" ^ ty ]
      | Value.Array vs ->
          "[" :: (List.concat_map (fun v -> value_tokens ~entities v @ [ "," ]) vs |> fun l ->
                  match List.rev l with "," :: rest -> List.rev rest | _ -> l)
          @ [ "]" ]
      | Value.Undefined -> [ "undefined" ])

and date_tokens ~entities d =
  match d with
  | Value.D_now -> [ "date:now" ]
  | Value.D_start_of u -> [ "start_of:" ^ u ]
  | Value.D_end_of u -> [ "end_of:" ^ u ]
  | Value.D_absolute { year; month; day } ->
      [ Printf.sprintf "date:%d:%d:%d" year month day ]
  | Value.D_plus (base, n, u) ->
      let num =
        match find_slot entities (Value.Number n) with
        | Some slot -> slot
        | None -> List.hd (value_tokens ~entities:[] (Value.Number n))
      in
      date_tokens ~entities base @ [ "+"; num; "unit:" ^ u ]

let param_token ~options lib (fn : Fn.t) name =
  if options.type_annotations then
    let ty =
      match Schema.Library.find_fn lib fn with
      | None -> None
      | Some f -> Option.map (fun p -> p.Schema.p_type) (Schema.find_param f name)
    in
    match ty with
    | Some ty -> Printf.sprintf "param:%s:%s" name (type_token ty)
    | None -> "param:" ^ name
  else "param:" ^ name

(* A bare output-parameter reference (filter lhs, join 'on', param passing
   source). *)
let out_param_token ~options lib (fns : Fn.t list) name =
  ignore options;
  ignore lib;
  ignore fns;
  "param:" ^ name

let invocation_tokens ~options ~entities lib (inv : invocation) : string list =
  let fn_tok = Fn.to_string inv.fn in
  if options.keyword_params then
    fn_tok
    :: List.concat_map
         (fun ip ->
           let v_toks =
             match ip.ip_value with
             | Constant v -> value_tokens ~entities v
             | Passed op -> [ "param:" ^ op ]
           in
           (param_token ~options lib inv.fn ip.ip_name :: "=" :: v_toks))
         inv.in_params
  else
    (* positional: one slot per declared input parameter, in signature order;
       'none' marks an absent optional parameter *)
    let slots =
      match Schema.Library.find_fn lib inv.fn with
      | None -> List.map (fun ip -> Some ip) inv.in_params
      | Some f ->
          List.map
            (fun p -> List.find_opt (fun ip -> ip.ip_name = p.Schema.p_name) inv.in_params)
            (Schema.in_params f)
    in
    fn_tok :: "("
    :: (List.concat_map
          (fun slot ->
            (match slot with
            | None -> [ "none" ]
            | Some ip -> (
                match ip.ip_value with
                | Constant v -> value_tokens ~entities v
                | Passed op -> [ "param:" ^ op ]))
            @ [ "," ])
          slots
       |> fun l -> match List.rev l with "," :: rest -> List.rev rest | _ -> l)
    @ [ ")" ]

let rec predicate_tokens ~options ~entities lib (p : predicate) : string list =
  match p with
  | P_true -> [ "true" ]
  | P_false -> [ "false" ]
  | P_not p -> ("not" :: "(" :: predicate_tokens ~options ~entities lib p) @ [ ")" ]
  | P_and ps ->
      List.concat
        (List.mapi
           (fun i p ->
             (if i = 0 then [] else [ "and" ]) @ atom_tokens ~options ~entities lib p)
           ps)
  | P_or ps ->
      "(" :: List.concat
               (List.mapi
                  (fun i p ->
                    (if i = 0 then [] else [ "or" ]) @ atom_tokens ~options ~entities lib p)
                  ps)
      @ [ ")" ]
  | P_atom { lhs; op; rhs } ->
      (out_param_token ~options lib [] lhs :: comp_op_to_string op
       :: value_tokens ~entities rhs)
  | P_external { inv; pred } ->
      invocation_tokens ~options ~entities lib inv
      @ ("{" :: predicate_tokens ~options ~entities lib pred)
      @ [ "}" ]

and atom_tokens ~options ~entities lib p =
  match p with
  | P_and _ | P_or _ -> ("(" :: predicate_tokens ~options ~entities lib p) @ [ ")" ]
  | _ -> predicate_tokens ~options ~entities lib p

let rec query_tokens ~options ~entities lib (q : query) : string list =
  match q with
  | Q_invoke inv -> invocation_tokens ~options ~entities lib inv
  | Q_filter (inner, p) ->
      query_tokens ~options ~entities lib inner
      @ ("filter" :: predicate_tokens ~options ~entities lib p)
  | Q_join (a, b, on) ->
      let on_toks =
        match on with
        | [] -> []
        | on ->
            "on" :: "("
            :: (List.concat_map
                  (fun (ip, op) -> [ "param:" ^ ip; "="; "param:" ^ op; "," ])
                  on
               |> fun l -> match List.rev l with "," :: rest -> List.rev rest | _ -> l)
            @ [ ")" ]
      in
      ("(" :: query_tokens ~options ~entities lib a)
      @ (")" :: "join" :: "(" :: query_tokens ~options ~entities lib b)
      @ (")" :: on_toks)
  | Q_aggregate { op; field; inner } ->
      ("agg" :: agg_op_to_string op
       :: (match field with None -> [] | Some f -> [ "param:" ^ f ]))
      @ ("of" :: "(" :: query_tokens ~options ~entities lib inner)
      @ [ ")" ]

let rec stream_tokens ~options ~entities lib (s : stream) : string list =
  match s with
  | S_now -> [ "now" ]
  | S_attimer t -> ("attimer" :: "time" :: "=" :: value_tokens ~entities t)
  | S_timer { base; interval } ->
      ("timer" :: "base" :: "=" :: value_tokens ~entities base)
      @ ("interval" :: "=" :: value_tokens ~entities interval)
  | S_monitor (q, on_new) ->
      ("monitor" :: "(" :: query_tokens ~options ~entities lib q)
      @ [ ")" ]
      @ (match on_new with
        | None -> []
        | Some fields ->
            "on" :: "new" :: "["
            :: (List.concat_map (fun f -> [ "param:" ^ f; "," ]) fields |> fun l ->
                match List.rev l with "," :: rest -> List.rev rest | _ -> l)
            @ [ "]" ])
  | S_edge (inner, p) ->
      ("edge" :: "(" :: stream_tokens ~options ~entities lib inner)
      @ (")" :: "on" :: predicate_tokens ~options ~entities lib p)

let action_tokens ~options ~entities lib (a : action) : string list =
  match a with
  | A_notify -> [ "notify" ]
  | A_invoke inv -> invocation_tokens ~options ~entities lib inv

let to_tokens ?(options = default_options) ?(entities = []) lib (p : program) :
    string list =
  stream_tokens ~options ~entities lib p.stream
  @ (match p.query with
    | None -> []
    | Some q -> "=>" :: query_tokens ~options ~entities lib q)
  @ ("=>" :: action_tokens ~options ~entities lib p.action)

let to_string ?options ?entities lib p =
  String.concat " " (to_tokens ?options ?entities lib p)

let policy_to_tokens ?(options = default_options) ?(entities = []) lib
    (p : policy) : string list =
  let target =
    match p.target with
    | Policy_query (inv, pred) ->
        invocation_tokens ~options ~entities lib inv
        @ (match pred with
          | P_true -> []
          | _ -> "filter" :: predicate_tokens ~options ~entities lib pred)
        @ [ "=>"; "notify" ]
    | Policy_action (inv, pred) ->
        invocation_tokens ~options ~entities lib inv
        @ (match pred with
          | P_true -> []
          | _ -> "filter" :: predicate_tokens ~options ~entities lib pred)
  in
  ("policy" :: predicate_tokens ~options ~entities lib p.source) @ (":" :: target)

(* --- deserialization ------------------------------------------------------ *)

type pstate = { toks : string array; mutable pos : int }

let peek st = if st.pos < Array.length st.toks then st.toks.(st.pos) else "<eof>"
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else "<eof>"
let next st =
  let t = peek st in
  st.pos <- st.pos + 1;
  t

let expect st t =
  let got = next st in
  if got <> t then fail "expected %s, got %s" t got

let starts_with ~prefix s = Genie_util.Tok.starts_with ~prefix s

let strip_prefix ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

(* Malformed function names, operators and numbers are this decoder's
   [Parse_error], not the constructors' [Invalid_argument] or [Failure]. *)
let fn_of_token tok =
  match Fn.of_string tok with
  | fn -> fn
  | exception Invalid_argument _ -> fail "malformed function %s" tok

let op_of_token tok =
  match comp_op_of_string tok with
  | op -> op
  | exception Invalid_argument _ -> fail "expected comparison operator, got %s" tok

let int_of_token tok =
  match int_of_string_opt tok with Some n -> n | None -> fail "expected integer, got %s" tok

(* param:name or param:name:Type -> name *)
let param_name tok =
  if not (starts_with ~prefix:"param:" tok) then fail "expected param token, got %s" tok;
  let rest = strip_prefix ~prefix:"param:" tok in
  match String.index_opt rest ':' with
  | Some i -> String.sub rest 0 i
  | None -> rest

let parse_quoted_span st =
  expect st "\"";
  let buf = ref [] in
  let rec go () =
    match next st with
    | "\"" -> String.concat " " (List.rev !buf)
    | "<eof>" -> fail "unterminated quoted span"
    | t -> buf := t :: !buf; go ()
  in
  go ()


let is_number_token s =
  s <> ""
  && (match float_of_string_opt s with Some _ -> true | None -> false)

let resolve_entity ~entities slot =
  match List.assoc_opt slot entities with
  | Some v -> v
  | None -> fail "unresolved entity slot %s" slot

(* Named constants have the shape KIND_k, e.g. NUMBER_0 or DATE_1; a bare
   number like "100" is a literal, not a slot. *)
let is_slot_token s =
  String.length s > 2
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  && String.contains s '_'
  && String.for_all (fun c -> (c >= 'A' && c <= 'Z') || c = '_' || (c >= '0' && c <= '9')) s

let rec parse_value ~entities st : Value.t =
  let t = peek st in
  let base =
    if t = "\"" then begin
      let s = parse_quoted_span st in
      if starts_with ~prefix:"^^" (peek st) then
        let ty = strip_prefix ~prefix:"^^" (next st) in
        Value.Entity { ty; value = s; display = None }
      else Value.String s
    end
    else if is_slot_token t then begin
      let v = resolve_entity ~entities (next st) in
      match v with
      | Value.Number n when starts_with ~prefix:"unit:" (peek st) ->
          Value.Measure [ (n, strip_prefix ~prefix:"unit:" (next st)) ]
      | v -> v
    end
    else if is_number_token t then begin
      let n = float_of_string (next st) in
      if starts_with ~prefix:"unit:" (peek st) then
        Value.Measure [ (n, strip_prefix ~prefix:"unit:" (next st)) ]
      else Value.Number n
    end
    else if t = "true" then (ignore (next st); Value.Boolean true)
    else if t = "false" then (ignore (next st); Value.Boolean false)
    else if t = "undefined" then (ignore (next st); Value.Undefined)
    else if t = "date:now" then (ignore (next st); Value.Date Value.D_now)
    else if starts_with ~prefix:"start_of:" t then
      (ignore (next st); Value.Date (Value.D_start_of (strip_prefix ~prefix:"start_of:" t)))
    else if starts_with ~prefix:"end_of:" t then
      (ignore (next st); Value.Date (Value.D_end_of (strip_prefix ~prefix:"end_of:" t)))
    else if starts_with ~prefix:"date:" t then begin
      ignore (next st);
      match Genie_util.Tok.split_on_string ~sep:":" (strip_prefix ~prefix:"date:" t) with
      | [ y; m; d ] ->
          Value.Date
            (Value.D_absolute
               { year = int_of_token y; month = int_of_token m; day = int_of_token d })
      | _ -> fail "bad date token %s" t
    end
    else if starts_with ~prefix:"time:" t then begin
      ignore (next st);
      match Genie_util.Tok.split_on_string ~sep:":" (strip_prefix ~prefix:"time:" t) with
      | [ h; m ] -> Value.Time (int_of_token h, int_of_token m)
      | _ -> fail "bad time token %s" t
    end
    else if t = "location:" then begin
      ignore (next st);
      Value.Location (Value.L_named (parse_quoted_span st))
    end
    else if starts_with ~prefix:"location:" t then begin
      ignore (next st);
      let rest = strip_prefix ~prefix:"location:" t in
      match Genie_util.Tok.split_on_string ~sep:":" rest with
      | [ lat; lon ] when is_number_token lat && is_number_token lon ->
          Value.Location (Value.L_absolute (float_of_string lat, float_of_string lon))
      | _ -> Value.Location (Value.L_relative rest)
    end
    else if starts_with ~prefix:"currency:" t then begin
      ignore (next st);
      let code = strip_prefix ~prefix:"currency:" t in
      let n = next st in
      let n =
        if is_slot_token n then
          match resolve_entity ~entities n with
          | Value.Number x -> x
          | _ -> fail "currency amount slot is not a number"
        else if is_number_token n then float_of_string n
        else fail "expected currency amount, got %s" n
      in
      Value.Currency (n, code)
    end
    else if starts_with ~prefix:"enum:" t then
      (ignore (next st); Value.Enum (strip_prefix ~prefix:"enum:" t))
    else if t = "[" then begin
      ignore (next st);
      let rec elems acc =
        if peek st = "]" then (ignore (next st); List.rev acc)
        else
          let v = parse_value ~entities st in
          if peek st = "," then (ignore (next st); elems (v :: acc))
          else (expect st "]"; List.rev (v :: acc))
      in
      Value.Array (elems [])
    end
    else fail "expected value, got %s" t
  in
  (* additive measures / date offsets *)
  if peek st = "+" then begin
    ignore (next st);
    let rhs = parse_value ~entities st in
    match (base, rhs) with
    | Value.Measure a, Value.Measure b -> Value.Measure (a @ b)
    | Value.Date d, Value.Measure [ (n, u) ] -> Value.Date (Value.D_plus (d, n, u))
    | _ -> fail "invalid + composition"
  end
  else base

let parse_invocation ~options ~entities lib st : invocation =
  let fn_tok = next st in
  if not (starts_with ~prefix:"@" fn_tok) then fail "expected function, got %s" fn_tok;
  let fn = fn_of_token fn_tok in
  if options.keyword_params then begin
    let rec params acc =
      if starts_with ~prefix:"param:" (peek st) && peek2 st = "=" then begin
        let name = param_name (next st) in
        expect st "=";
        let value =
          if starts_with ~prefix:"param:" (peek st) then Passed (param_name (next st))
          else Constant (parse_value ~entities st)
        in
        params ({ ip_name = name; ip_value = value } :: acc)
      end
      else List.rev acc
    in
    { fn; in_params = params [] }
  end
  else begin
    (* positional mode *)
    expect st "(";
    let sig_params =
      match Schema.Library.find_fn lib fn with
      | Some f -> Schema.in_params f
      | None -> fail "positional parse of unknown function %s" fn_tok
    in
    let rec slots i acc =
      if peek st = ")" then (ignore (next st); List.rev acc)
      else begin
        let acc =
          if peek st = "none" then (ignore (next st); acc)
          else begin
            let value =
              if starts_with ~prefix:"param:" (peek st) then Passed (param_name (next st))
              else Constant (parse_value ~entities st)
            in
            match List.nth_opt sig_params i with
            | Some p -> { ip_name = p.Schema.p_name; ip_value = value } :: acc
            | None -> fail "too many positional parameters for %s" fn_tok
          end
        in
        if peek st = "," then (ignore (next st); slots (i + 1) acc)
        else (expect st ")"; List.rev acc)
      end
    in
    { fn; in_params = slots 0 [] }
  end

let rec parse_predicate ~options ~entities lib st : predicate =
  let lhs = parse_pred_or ~options ~entities lib st in
  if peek st = "and" then begin
    let rec more acc =
      if peek st = "and" then begin
        ignore (next st);
        more (parse_pred_or ~options ~entities lib st :: acc)
      end
      else List.rev acc
    in
    P_and (more [ lhs ])
  end
  else lhs

and parse_pred_or ~options ~entities lib st =
  parse_pred_atom ~options ~entities lib st

and parse_pred_atom ~options ~entities lib st =
  match peek st with
  | "true" -> ignore (next st); P_true
  | "false" -> ignore (next st); P_false
  | "not" ->
      ignore (next st);
      expect st "(";
      let p = parse_predicate ~options ~entities lib st in
      expect st ")";
      P_not p
  | "(" ->
      (* parenthesized group: a disjunction or a nested conjunction *)
      ignore (next st);
      let first = parse_pred_atom ~options ~entities lib st in
      let connective = peek st in
      let rec more acc =
        match peek st with
        | ("or" | "and") as c when c = connective ->
            ignore (next st);
            more (parse_pred_atom ~options ~entities lib st :: acc)
        | ")" -> ignore (next st); List.rev acc
        | t -> fail "expected %s or ) in predicate group, got %s" connective t
      in
      (match (connective, more [ first ]) with
      | _, [ p ] -> p
      | "and", ps -> P_and ps
      | _, ps -> P_or ps)
  | t when starts_with ~prefix:"@" t ->
      let inv = parse_invocation ~options ~entities lib st in
      expect st "{";
      let p = parse_predicate ~options ~entities lib st in
      expect st "}";
      P_external { inv; pred = p }
  | t when starts_with ~prefix:"param:" t ->
      let lhs = param_name (next st) in
      let op = op_of_token (next st) in
      let rhs = parse_value ~entities st in
      P_atom { lhs; op; rhs }
  | t -> fail "expected predicate, got %s" t

let rec parse_query ~options ~entities lib st : query =
  let atom = parse_query_atom ~options ~entities lib st in
  parse_query_postfix ~options ~entities lib st atom

and parse_query_postfix ~options ~entities lib st lhs =
  match peek st with
  | "filter" ->
      ignore (next st);
      let p = parse_predicate ~options ~entities lib st in
      parse_query_postfix ~options ~entities lib st (Q_filter (lhs, p))
  | "join" ->
      ignore (next st);
      let rhs = parse_query_atom ~options ~entities lib st in
      let on =
        if peek st = "on" && peek2 st = "(" then begin
          ignore (next st);
          ignore (next st);
          let rec pairs acc =
            let ip = param_name (next st) in
            expect st "=";
            let op = param_name (next st) in
            if peek st = "," then (ignore (next st); pairs ((ip, op) :: acc))
            else (expect st ")"; List.rev ((ip, op) :: acc))
          in
          pairs []
        end
        else []
      in
      parse_query_postfix ~options ~entities lib st (Q_join (lhs, rhs, on))
  | _ -> lhs

and parse_query_atom ~options ~entities lib st =
  match peek st with
  | "(" ->
      ignore (next st);
      let q = parse_query ~options ~entities lib st in
      expect st ")";
      q
  | "agg" ->
      ignore (next st);
      let op =
        match next st with
        | "max" -> Agg_max
        | "min" -> Agg_min
        | "sum" -> Agg_sum
        | "avg" -> Agg_avg
        | "count" -> Agg_count
        | t -> fail "expected aggregation op, got %s" t
      in
      let field =
        if starts_with ~prefix:"param:" (peek st) then Some (param_name (next st)) else None
      in
      expect st "of";
      expect st "(";
      let inner = parse_query ~options ~entities lib st in
      expect st ")";
      Q_aggregate { op; field; inner }
  | t when starts_with ~prefix:"@" t -> Q_invoke (parse_invocation ~options ~entities lib st)
  | t -> fail "expected query, got %s" t

let rec parse_stream ~options ~entities lib st : stream =
  match peek st with
  | "now" -> ignore (next st); S_now
  | "attimer" ->
      ignore (next st);
      expect st "time";
      expect st "=";
      S_attimer (parse_value ~entities st)
  | "timer" ->
      ignore (next st);
      expect st "base";
      expect st "=";
      let base = parse_value ~entities st in
      expect st "interval";
      expect st "=";
      let interval = parse_value ~entities st in
      S_timer { base; interval }
  | "monitor" ->
      ignore (next st);
      expect st "(";
      let q = parse_query ~options ~entities lib st in
      expect st ")";
      if peek st = "on" && peek2 st = "new" then begin
        ignore (next st);
        ignore (next st);
        expect st "[";
        let rec fields acc =
          let f = param_name (next st) in
          if peek st = "," then (ignore (next st); fields (f :: acc))
          else (expect st "]"; List.rev (f :: acc))
        in
        S_monitor (q, Some (fields []))
      end
      else S_monitor (q, None)
  | "edge" ->
      ignore (next st);
      expect st "(";
      let s = parse_stream ~options ~entities lib st in
      expect st ")";
      expect st "on";
      let p = parse_predicate ~options ~entities lib st in
      S_edge (s, p)
  | t -> fail "expected stream, got %s" t

let of_tokens ?(options = default_options) ?(entities = []) lib (toks : string list) :
    program =
  let st = { toks = Array.of_list toks; pos = 0 } in
  let stream = parse_stream ~options ~entities lib st in
  expect st "=>";
  let query, action =
    if peek st = "notify" then (ignore (next st); (None, A_notify))
    else begin
      let q = parse_query ~options ~entities lib st in
      if peek st = "=>" then begin
        ignore (next st);
        if peek st = "notify" then (ignore (next st); (Some q, A_notify))
        else (Some q, A_invoke (parse_invocation ~options ~entities lib st))
      end
      else
        match q with
        | Q_invoke inv -> (None, A_invoke inv)
        | _ -> fail "expected => or end after query"
    end
  in
  if peek st <> "<eof>" then fail "trailing tokens: %s" (peek st);
  { stream; query; action }

let of_string ?options ?entities lib s =
  of_tokens ?options ?entities lib
    (List.filter (fun t -> t <> "") (String.split_on_char ' ' s))

(* Validity check used for the error-analysis experiment (section 5.5): does a
   token sequence parse and type-check? *)
let well_formed ?options ?entities lib toks =
  match of_tokens ?options ?entities lib toks with
  | p -> Result.is_ok (Typecheck.check_program lib p)
  | exception Parse_error _ -> false
  | exception _ -> false
