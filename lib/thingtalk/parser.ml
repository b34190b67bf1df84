(* Recursive-descent parser for the ThingTalk surface syntax (Fig. 5) plus
   the TT+A aggregation extension and TACL policies. *)

open Ast

exception Error of string

type state = { toks : Lexer.token array; mutable pos : int }

let make_state src = { toks = Array.of_list (Lexer.tokenize src); pos = 0 }

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else Lexer.EOF
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Error (Printf.sprintf "%s at token %s (position %d)" msg
                  (Lexer.token_to_string (peek st)) st.pos))

let expect st tok =
  if peek st = tok then advance st
  else fail st (Printf.sprintf "expected %s" (Lexer.token_to_string tok))

let expect_ident st word =
  match peek st with
  | Lexer.IDENT w when w = word -> advance st
  | _ -> fail st (Printf.sprintf "expected %s" word)

let accept st tok = if peek st = tok then (advance st; true) else false

let accept_ident st word =
  match peek st with
  | Lexer.IDENT w when w = word -> advance st; true
  | _ -> false

let ident st =
  match peek st with
  | Lexer.IDENT w -> advance st; w
  | _ -> fail st "expected identifier"

(* --- values ------------------------------------------------------------- *)

let rec parse_value st : Value.t =
  let v = parse_value_atom st in
  (* additive measure composition: 6ft + 3in *)
  match (v, peek st) with
  | Value.Measure terms, Lexer.OP "+" ->
      let rec more acc =
        if accept st (Lexer.OP "+") then
          match parse_value_atom st with
          | Value.Measure terms' -> more (acc @ terms')
          | _ -> fail st "expected measure after +"
        else acc
      in
      Value.Measure (more terms)
  | Value.Date d, Lexer.OP "+" ->
      advance st;
      (match parse_value_atom st with
      | Value.Measure [ (n, u) ] -> Value.Date (Value.D_plus (d, n, u))
      | _ -> fail st "expected single-term measure after date +")
  | _ -> v

and parse_value_atom st : Value.t =
  match peek st with
  | Lexer.NUMBER n -> advance st; Value.Number n
  | Lexer.MEASURE (n, u) -> advance st; Value.Measure [ (n, u) ]
  | Lexer.STRING s ->
      advance st;
      if accept st (Lexer.OP "^^") then begin
        match peek st with
        | Lexer.IDENT prefix ->
            advance st;
            (* entity types may be namespaced, e.g. tt:username *)
            let ty =
              if peek st = Lexer.COLON then begin
                advance st;
                prefix ^ ":" ^ ident st
              end
              else prefix
            in
            let display =
              if peek st = Lexer.LPAREN then begin
                advance st;
                match peek st with
                | Lexer.STRING d -> advance st; expect st Lexer.RPAREN; Some d
                | _ -> fail st "expected display string"
              end
              else None
            in
            Value.Entity { ty; value = s; display }
        | _ -> fail st "expected entity type after ^^"
      end
      else Value.String s
  | Lexer.ENUM v -> advance st; Value.Enum v
  | Lexer.RELATIVE_LOCATION r -> advance st; Value.Location (Value.L_relative r)
  | Lexer.DOLLAR "now" -> advance st; Value.Date Value.D_now
  | Lexer.DOLLAR "?" -> advance st; Value.Undefined
  | Lexer.LBRACKET ->
      advance st;
      let rec elems acc =
        if accept st Lexer.RBRACKET then List.rev acc
        else
          let v = parse_value st in
          if accept st Lexer.COMMA then elems (v :: acc)
          else (expect st Lexer.RBRACKET; List.rev (v :: acc))
      in
      Value.Array (elems [])
  | Lexer.IDENT "true" -> advance st; Value.Boolean true
  | Lexer.IDENT "false" -> advance st; Value.Boolean false
  | Lexer.IDENT "date" ->
      advance st;
      expect st Lexer.LPAREN;
      let y = parse_int st in
      expect st Lexer.COMMA;
      let m = parse_int st in
      expect st Lexer.COMMA;
      let d = parse_int st in
      expect st Lexer.RPAREN;
      Value.Date (Value.D_absolute { year = y; month = m; day = d })
  | Lexer.IDENT "time" ->
      advance st;
      expect st Lexer.LPAREN;
      let h = parse_int st in
      expect st Lexer.COMMA;
      let m = parse_int st in
      expect st Lexer.RPAREN;
      Value.Time (h, m)
  | Lexer.IDENT "start_of" ->
      advance st;
      expect st Lexer.LPAREN;
      let u = ident st in
      expect st Lexer.RPAREN;
      Value.Date (Value.D_start_of u)
  | Lexer.IDENT "end_of" ->
      advance st;
      expect st Lexer.LPAREN;
      let u = ident st in
      expect st Lexer.RPAREN;
      Value.Date (Value.D_end_of u)
  | Lexer.IDENT "location" ->
      advance st;
      expect st Lexer.LPAREN;
      (match peek st with
      | Lexer.STRING name ->
          advance st;
          expect st Lexer.RPAREN;
          Value.Location (Value.L_named name)
      | _ ->
          let lat = parse_float st in
          expect st Lexer.COMMA;
          let lon = parse_float st in
          expect st Lexer.RPAREN;
          Value.Location (Value.L_absolute (lat, lon)))
  | Lexer.IDENT "currency" ->
      advance st;
      expect st Lexer.LPAREN;
      let n = parse_float st in
      expect st Lexer.COMMA;
      let code = ident st in
      expect st Lexer.RPAREN;
      Value.Currency (n, code)
  | _ -> fail st "expected value"

and parse_int st =
  match peek st with
  | Lexer.NUMBER n when Float.is_integer n -> advance st; int_of_float n
  | _ -> fail st "expected integer"

and parse_float st =
  match peek st with
  | Lexer.NUMBER n -> advance st; n
  | _ -> fail st "expected number"

(* --- invocations --------------------------------------------------------- *)

let starts_value st =
  match peek st with
  | Lexer.NUMBER _ | Lexer.MEASURE _ | Lexer.STRING _ | Lexer.ENUM _
  | Lexer.RELATIVE_LOCATION _ | Lexer.DOLLAR _ | Lexer.LBRACKET -> true
  | Lexer.IDENT ("true" | "false" | "date" | "time" | "start_of" | "end_of"
                 | "location" | "currency") -> true
  | _ -> false

let parse_in_param st =
  let name = ident st in
  expect st Lexer.EQUALS;
  if starts_value st then { ip_name = name; ip_value = Constant (parse_value st) }
  else
    match peek st with
    | Lexer.IDENT out_name -> advance st; { ip_name = name; ip_value = Passed out_name }
    | _ -> fail st "expected value or output parameter name"

let parse_invocation st =
  match peek st with
  | Lexer.FNREF f ->
      let fn =
        match Fn.of_string f with
        | fn -> fn
        | exception Invalid_argument _ -> fail st "malformed function reference"
      in
      advance st;
      expect st Lexer.LPAREN;
      let rec params acc =
        if accept st Lexer.RPAREN then List.rev acc
        else
          let p = parse_in_param st in
          if accept st Lexer.COMMA then params (p :: acc)
          else (expect st Lexer.RPAREN; List.rev (p :: acc))
      in
      { fn; in_params = params [] }
  | _ -> fail st "expected function reference"

(* --- predicates ---------------------------------------------------------- *)

let rec parse_predicate st : predicate =
  let lhs = parse_pred_and st in
  if peek st = Lexer.OP "||" then begin
    let rec more acc =
      if accept st (Lexer.OP "||") then more (parse_pred_and st :: acc) else List.rev acc
    in
    P_or (more [ lhs ])
  end
  else lhs

and parse_pred_and st =
  let lhs = parse_pred_atom st in
  if peek st = Lexer.OP "&&" then begin
    let rec more acc =
      if accept st (Lexer.OP "&&") then more (parse_pred_atom st :: acc) else List.rev acc
    in
    P_and (more [ lhs ])
  end
  else lhs

and parse_pred_atom st =
  match peek st with
  | Lexer.IDENT "true" -> advance st; P_true
  | Lexer.IDENT "false" -> advance st; P_false
  | Lexer.OP "!" ->
      advance st;
      P_not (parse_pred_atom st)
  | Lexer.LPAREN ->
      advance st;
      let p = parse_predicate st in
      expect st Lexer.RPAREN;
      p
  | Lexer.FNREF _ ->
      let inv = parse_invocation st in
      expect st Lexer.LBRACE;
      let p = parse_predicate st in
      expect st Lexer.RBRACE;
      P_external { inv; pred = p }
  | Lexer.IDENT _ ->
      let lhs = ident st in
      let op =
        match peek st with
        | Lexer.OP (("==" | "!=" | ">" | "<" | ">=" | "<=") as o) ->
            advance st;
            comp_op_of_string o
        | Lexer.EQUALS -> advance st; Op_eq
        | Lexer.IDENT (("contains" | "substr" | "starts_with" | "ends_with" | "in_array") as o) ->
            advance st;
            comp_op_of_string o
        | _ -> fail st "expected comparison operator"
      in
      let rhs = parse_value st in
      P_atom { lhs; op; rhs }
  | _ -> fail st "expected predicate"

(* --- queries ------------------------------------------------------------- *)

let rec parse_query st : query =
  let lhs = parse_query_atom st in
  parse_query_postfix st lhs

and parse_query_postfix st lhs =
  if accept_ident st "filter" then
    let p = parse_predicate st in
    parse_query_postfix st (Q_filter (lhs, p))
  else if accept_ident st "join" then begin
    let rhs = parse_query_atom st in
    (* optional: on (ip = op, ...) -- but 'on' also introduces edge predicates
       and monitor field lists; inside a query postfix it is unambiguous. *)
    let on =
      if peek st = Lexer.IDENT "on" && peek2 st = Lexer.LPAREN then begin
        advance st;
        advance st;
        let rec pairs acc =
          let ip = ident st in
          expect st Lexer.EQUALS;
          let op = ident st in
          if accept st Lexer.COMMA then pairs ((ip, op) :: acc)
          else (expect st Lexer.RPAREN; List.rev ((ip, op) :: acc))
        in
        pairs []
      end
      else []
    in
    parse_query_postfix st (Q_join (lhs, rhs, on))
  end
  else lhs

and parse_query_atom st =
  match peek st with
  | Lexer.LPAREN ->
      advance st;
      let q = parse_query st in
      expect st Lexer.RPAREN;
      q
  | Lexer.FNREF _ -> Q_invoke (parse_invocation st)
  | Lexer.IDENT "agg" ->
      advance st;
      let op_name = ident st in
      let op =
        match op_name with
        | "max" -> Agg_max
        | "min" -> Agg_min
        | "sum" -> Agg_sum
        | "avg" -> Agg_avg
        | "count" -> Agg_count
        | _ -> fail st "expected aggregation operator"
      in
      let field = if accept_ident st "of" then None else Some (ident st) in
      if field <> None then expect_ident st "of";
      expect st Lexer.LPAREN;
      let inner = parse_query st in
      expect st Lexer.RPAREN;
      Q_aggregate { op; field; inner }
  | _ -> fail st "expected query"

(* --- streams ------------------------------------------------------------- *)

let rec parse_stream st : stream =
  match peek st with
  | Lexer.IDENT "now" -> advance st; S_now
  | Lexer.IDENT "attimer" ->
      advance st;
      expect_ident st "time";
      expect st Lexer.EQUALS;
      S_attimer (parse_value st)
  | Lexer.IDENT "timer" ->
      advance st;
      expect_ident st "base";
      expect st Lexer.EQUALS;
      let base = parse_value st in
      expect_ident st "interval";
      expect st Lexer.EQUALS;
      let interval = parse_value st in
      S_timer { base; interval }
  | Lexer.IDENT "monitor" ->
      advance st;
      let q =
        if accept st Lexer.LPAREN then begin
          let q = parse_query st in
          expect st Lexer.RPAREN;
          q
        end
        else Q_invoke (parse_invocation st)
      in
      (* 'on new [fields]' -- distinguished from edge's 'on predicate' by the
         'new' keyword. *)
      if peek st = Lexer.IDENT "on" && peek2 st = Lexer.IDENT "new" then begin
        advance st;
        advance st;
        let fields =
          if accept st Lexer.LBRACKET then begin
            let rec go acc =
              let f = ident st in
              if accept st Lexer.COMMA then go (f :: acc)
              else (expect st Lexer.RBRACKET; List.rev (f :: acc))
            in
            go []
          end
          else [ ident st ]
        in
        S_monitor (q, Some fields)
      end
      else S_monitor (q, None)
  | Lexer.IDENT "edge" ->
      advance st;
      expect st Lexer.LPAREN;
      let s = parse_stream st in
      expect st Lexer.RPAREN;
      expect_ident st "on";
      let p = parse_predicate st in
      S_edge (s, p)
  | _ -> fail st "expected stream"

(* --- programs ------------------------------------------------------------ *)

let query_as_action st q =
  match q with
  | Q_invoke inv -> A_invoke inv
  | _ -> fail st "only a plain invocation can be used as an action"

let parse_program_tokens st : program =
  let stream = parse_stream st in
  expect st Lexer.ARROW;
  if accept_ident st "notify" then begin
    ignore (accept st Lexer.SEMICOLON);
    { stream; query = None; action = A_notify }
  end
  else begin
    let q = parse_query st in
    if accept st Lexer.ARROW then begin
      let action =
        if accept_ident st "notify" then A_notify else A_invoke (parse_invocation st)
      in
      ignore (accept st Lexer.SEMICOLON);
      { stream; query = Some q; action }
    end
    else begin
      ignore (accept st Lexer.SEMICOLON);
      { stream; query = None; action = query_as_action st q }
    end
  end

let parse_program src =
  let st = make_state src in
  let p = parse_program_tokens st in
  if peek st <> Lexer.EOF then fail st "trailing tokens after program";
  p

(* --- policies ------------------------------------------------------------ *)

let parse_policy src : policy =
  let st = make_state src in
  expect_ident st "source";
  let source = parse_predicate st in
  expect st Lexer.COLON;
  expect_ident st "now";
  expect st Lexer.ARROW;
  let strip_filters q =
    let rec go q acc =
      match q with
      | Q_invoke inv -> (inv, acc)
      | Q_filter (q, p) -> go q (match acc with P_true -> p | _ -> P_and [ p; acc ])
      | Q_join _ | Q_aggregate _ ->
          raise (Error "TACL policies are restricted to primitive commands")
    in
    go q P_true
  in
  let q = parse_query st in
  let inv, pred = strip_filters q in
  let target =
    if accept st Lexer.ARROW then begin
      expect_ident st "notify";
      Policy_query (inv, pred)
    end
    else Policy_action (inv, pred)
  in
  ignore (accept st Lexer.SEMICOLON);
  if peek st <> Lexer.EOF then fail st "trailing tokens after policy";
  { source; target }

let parse_program_opt src =
  match parse_program src with
  | p -> Some p
  | exception (Error _ | Lexer.Error _) -> None
