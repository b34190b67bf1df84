(* ThingTalk compilation: lowers a typechecked AST to flat predicate
   bytecode plus closure-threaded query/stream/action plans, with Thingpedia
   schemas pre-resolved and parameter slots pre-bound at compile time.

   The contract — enforced by test/suite_compile.ml's differential suite —
   is byte-identity with the tree-walking interpreter in Exec: same results,
   same per-run state (Exec.start / Exec.results), same RNG draw order
   (mock services for non-monitorable functions draw once per generate
   call), same error messages raised at the same evaluation point. Every runtime branch below
   mirrors a specific line of exec.ml; when editing one, edit both.

   A compiled program is specialized to the library it was compiled
   against: running it in an env built from a different library is
   unspecified (the serve layer compiles and executes against the same
   library, as does exec_compiled). Custom services registered on the env
   are still honored — the pre-resolved schema only backs the default mock
   fallback. *)

open Genie_thingtalk

type record = Exec.record

let rt_error fmt = Printf.ksprintf (fun s -> raise (Exec.Runtime_error s)) fmt

(* --- pre-bound parameter slots -------------------------------------------- *)

type slot =
  | Slot_const of string * Value.t  (* input name, literal *)
  | Slot_passed of string * string  (* input name, upstream output name *)

(* --- compiled invocations -------------------------------------------------- *)

(* One invocation site with its schema resolved once: the function-key
   string (Exec recomputes [Fn.to_string] per call), the slot array, and a
   specialized default mock service whose per-parameter hash-key prefixes
   and value generators were built at compile time. *)
type cinv = {
  ci_id : int;
  ci_fn : Ast.Fn.t;
  ci_fn_str : string;
  ci_slots : slot array;
  ci_default : Exec.service;
}

(* Mirrors the value grammar of Exec.default_value_for, specialized per
   output-parameter type so the per-row hot path is hash + one closure.
   Strings are concatenated rather than formatted: Printf took about a
   quarter of a serve-hot run's time. *)
let compile_gen (p : Schema.param) : int -> Value.t =
  let name = p.Schema.p_name in
  let rec gen (ty : Ttype.t) : int -> Value.t =
    match ty with
    | Ttype.String ->
        let pre = name ^ " item " in
        fun h -> Value.String (pre ^ string_of_int (h mod 97))
    | Ttype.Number -> fun h -> Value.Number (float_of_int (h mod 1000))
    | Ttype.Boolean -> fun h -> Value.Boolean (h mod 2 = 0)
    | Ttype.Date ->
        fun h ->
          Value.Date
            (Value.D_absolute { year = 2019; month = 1 + (h mod 12); day = 1 + (h mod 28) })
    | Ttype.Time -> fun h -> Value.Time (h mod 24, h mod 60)
    | Ttype.Location ->
        fun h -> Value.Location (Value.L_named ("place " ^ string_of_int (h mod 50)))
    | Ttype.Path_name ->
        fun h -> Value.String ("/folder/file_" ^ string_of_int (h mod 100) ^ ".txt")
    | Ttype.Url -> fun h -> Value.String ("https://example.com/" ^ string_of_int (h mod 1000))
    | Ttype.Picture ->
        fun h -> Value.String ("https://img.example.com/" ^ string_of_int (h mod 1000) ^ ".jpg")
    | Ttype.Phone_number ->
        fun h ->
          let n = string_of_int (h mod 10000000) in
          Value.String ("+1555" ^ String.make (7 - String.length n) '0' ^ n)
    | Ttype.Email_address ->
        fun h -> Value.String ("user" ^ string_of_int (h mod 1000) ^ "@example.com")
    | Ttype.Currency -> fun h -> Value.Currency (float_of_int (h mod 500), "usd")
    | Ttype.Measure u -> fun h -> Value.Measure [ (float_of_int (h mod 100), u) ]
    | Ttype.Enum [] -> fun _ -> Value.Enum "none"
    | Ttype.Enum vs ->
        let arr = Array.of_list vs in
        let len = Array.length arr in
        fun h -> Value.Enum arr.(h mod len)
    | Ttype.Entity ety ->
        let pre = ety ^ " " in
        fun h -> Value.Entity { ty = ety; value = pre ^ string_of_int (h mod 200); display = None }
    | Ttype.Array elt ->
        let ge = gen elt in
        fun h -> Value.Array [ ge h; ge h ]
  in
  gen p.Schema.p_type

(* The default mock with the schema lookup, out-params, monitorability,
   row count and hash-key prefixes all resolved at compile time. Produces
   bit-identical rows to Exec.default_service (same key strings, same
   Hashtbl.hash, same single RNG draw for non-monitorable buckets). *)
let compile_default_service lib fn fn_str : Exec.service =
  match Schema.Library.find_fn lib fn with
  | None ->
      { Exec.generate =
          (fun ~now:_ ~rng:_ ~args:_ -> rt_error "no such function %s" fn_str) }
  | Some f ->
      let monitorable = Schema.is_monitorable f in
      let rows = if Schema.is_list f then 3 else 1 in
      let cols =
        Array.of_list
          (List.map
             (fun p -> (p.Schema.p_name, fn_str ^ "/" ^ p.Schema.p_name ^ "/", compile_gen p))
             (Schema.out_params f))
      in
      { Exec.generate =
          (fun ~now ~rng ~args:_ ->
            let bucket =
              if monitorable then int_of_float now / 3
              else Genie_util.Rng.int rng 1000000
            in
            let suffix = "/" ^ string_of_int bucket in
            List.init rows (fun row ->
                let rowkey = string_of_int row ^ suffix in
                Array.to_list
                  (Array.map
                     (fun (name, prefix, g) -> (name, g (Hashtbl.hash (prefix ^ rowkey))))
                     cols)))
      }

(* Slot resolution, left to right so the first unbound passed parameter
   raises — exactly like Exec.resolve_in_params over in_params order. *)
let resolve_slots (bindings : record) (ci : cinv) : record =
  let slots = ci.ci_slots in
  let n = Array.length slots in
  let rec build i =
    if i = n then []
    else
      let hd =
        match slots.(i) with
        | Slot_const (name, v) -> (name, v)
        | Slot_passed (name, out) -> (
            match List.assoc_opt out bindings with
            | Some v -> (name, v)
            | None -> rt_error "unbound output parameter %s" out)
      in
      hd :: build (i + 1)
  in
  build 0

(* Mirrors Exec.eval_invocation: resolve args, look up a custom service by
   the precomputed key (falling back to the pre-resolved default), prepend
   the args to every row. *)
let run_cinv (rs : Exec.state) (bindings : record) (ci : cinv) : record list =
  let args = resolve_slots bindings ci in
  let service =
    match Hashtbl.find_opt rs.Exec.env.Exec.services ci.ci_fn_str with
    | Some s -> s
    | None -> ci.ci_default
  in
  let results = service.Exec.generate ~now:rs.Exec.now ~rng:rs.Exec.rng ~args in
  List.map (fun r -> args @ r) results

(* --- predicate bytecode ----------------------------------------------------- *)

(* Flat instruction stream over a bool operand stack. Conjunctions and
   disjunctions compile to forward conditional jumps that keep the deciding
   value on the stack, preserving the interpreter's List.for_all/List.exists
   short-circuit order exactly — load-bearing because external predicates
   consume RNG when they evaluate. *)
type pinstr =
  | PI_push of bool
  | PI_not
  | PI_pop
  | PI_atom of int  (* index into the program's atom table *)
  | PI_external of int  (* index into the program's external table *)
  | PI_jfalse of int  (* jump if top is false, keeping the value *)
  | PI_jtrue of int  (* jump if top is true, keeping the value *)

type pblock = { pb_id : int; pb_code : pinstr array; pb_stack : int }

(* One comparison atom with its operator dispatch and rhs pre-processing
   (raw string extraction + lowercasing) done at compile time. *)
type atom = {
  at_id : int;
  at_lhs : string;
  at_desc : string;
  at_test : now:float -> Value.t -> bool;
}

type ext = { ex_id : int; ex_inv : cinv; ex_pred : pblock }

(* Shared tables, finalized after compilation; runtime closures index into
   them so compile-time forward references are safe. *)
type tables = { mutable atoms : atom array; mutable exts : ext array }

(* These two mirror the private helpers in exec.ml. *)
let value_compare_num ~now a b =
  match (Value.to_float ~now a, Value.to_float ~now b) with
  | Some x, Some y -> Some (compare x y)
  | _ -> None

let string_of_value_raw = function
  | Value.String s -> Some s
  | Value.Entity { value; _ } -> Some value
  | Value.Enum e -> Some e
  | _ -> None

(* Specializes Exec.eval_atom on (op, rhs): each case body is the matching
   interpreter branch with the rhs captured. *)
let compile_test (op : Ast.comp_op) (rhs : Value.t) : now:float -> Value.t -> bool =
  let str_op f =
    match Option.map String.lowercase_ascii (string_of_value_raw rhs) with
    | None -> fun ~now:_ _ -> false
    | Some b -> (
        fun ~now:_ v ->
          match string_of_value_raw v with
          | Some a -> f (String.lowercase_ascii a) b
          | None -> false)
  in
  match op with
  | Ast.Op_eq -> fun ~now v -> Value.runtime_equal ~now v rhs
  | Ast.Op_neq -> fun ~now v -> not (Value.runtime_equal ~now v rhs)
  | Ast.Op_gt -> (
      fun ~now v -> match value_compare_num ~now v rhs with Some c -> c > 0 | None -> false)
  | Ast.Op_lt -> (
      fun ~now v -> match value_compare_num ~now v rhs with Some c -> c < 0 | None -> false)
  | Ast.Op_geq -> (
      fun ~now v -> match value_compare_num ~now v rhs with Some c -> c >= 0 | None -> false)
  | Ast.Op_leq -> (
      fun ~now v -> match value_compare_num ~now v rhs with Some c -> c <= 0 | None -> false)
  | Ast.Op_substr -> str_op (fun a b -> Genie_util.Tok.contains_substring ~sub:b a)
  | Ast.Op_starts_with -> str_op (fun a b -> Genie_util.Tok.starts_with ~prefix:b a)
  | Ast.Op_ends_with -> str_op (fun a b -> Genie_util.Tok.ends_with ~suffix:b a)
  | Ast.Op_contains ->
      let str = str_op (fun a b -> Genie_util.Tok.contains_substring ~sub:b a) in
      fun ~now v -> (
        match v with
        | Value.Array elems -> List.exists (fun e -> Value.runtime_equal ~now e rhs) elems
        | _ -> str ~now v)
  | Ast.Op_in_array -> (
      match rhs with
      | Value.Array elems -> fun ~now v -> List.exists (fun e -> Value.runtime_equal ~now v e) elems
      | _ -> fun ~now:_ _ -> false)

let op_name = function
  | Ast.Op_eq -> "=="
  | Ast.Op_neq -> "!="
  | Ast.Op_gt -> ">"
  | Ast.Op_lt -> "<"
  | Ast.Op_geq -> ">="
  | Ast.Op_leq -> "<="
  | Ast.Op_substr -> "=~"
  | Ast.Op_starts_with -> "starts_with"
  | Ast.Op_ends_with -> "ends_with"
  | Ast.Op_contains -> "contains"
  | Ast.Op_in_array -> "in_array"

(* --- bytecode execution ----------------------------------------------------- *)

let rec exec_pblock (tb : tables) (rs : Exec.state) (record : record) (pb : pblock) : bool =
  let code = pb.pb_code in
  let n = Array.length code in
  let stack = Array.make (max 1 pb.pb_stack) false in
  let sp = ref 0 in
  let push b =
    stack.(!sp) <- b;
    incr sp
  in
  let pc = ref 0 in
  while !pc < n do
    match code.(!pc) with
    | PI_push b ->
        push b;
        incr pc
    | PI_not ->
        stack.(!sp - 1) <- not stack.(!sp - 1);
        incr pc
    | PI_pop ->
        decr sp;
        incr pc
    | PI_atom i ->
        let a = tb.atoms.(i) in
        let b =
          match List.assoc_opt a.at_lhs record with
          | None -> false
          | Some v -> a.at_test ~now:rs.Exec.now v
        in
        push b;
        incr pc
    | PI_external i ->
        (* holds if some row of the external query satisfies the inner
           predicate; rows are produced (and RNG consumed) lazily up to the
           first hit, like the interpreter's List.exists *)
        let e = tb.exts.(i) in
        let results = run_cinv rs record e.ex_inv in
        let b = List.exists (fun r -> exec_pblock tb rs r e.ex_pred) results in
        push b;
        incr pc
    | PI_jfalse t -> if stack.(!sp - 1) then incr pc else pc := t
    | PI_jtrue t -> if stack.(!sp - 1) then pc := t else incr pc
  done;
  stack.(!sp - 1)

(* --- compilation context ---------------------------------------------------- *)

type ctx = {
  cx_lib : Schema.Library.t;
  cx_tables : tables;
  mutable cx_invs : cinv list;  (* reversed *)
  mutable cx_n_invs : int;
  mutable cx_atoms : atom list;  (* reversed *)
  mutable cx_n_atoms : int;
  mutable cx_exts : ext list;  (* reversed *)
  mutable cx_n_exts : int;
  mutable cx_pblocks : pblock list;  (* reversed *)
  mutable cx_n_pblocks : int;
  mutable cx_qlines : string list;  (* reversed query-plan listing lines *)
  mutable cx_n_q : int;
}

let slot_desc = function
  | Slot_const (n, v) -> Printf.sprintf "%s <- const %s" n (Value.to_string v)
  | Slot_passed (n, out) -> Printf.sprintf "%s <- slot %s" n out

let add_inv ctx (inv : Ast.invocation) : cinv =
  let fn_str = Ast.Fn.to_string inv.fn in
  let slots =
    Array.of_list
      (List.map
         (fun (ip : Ast.in_param) ->
           match ip.ip_value with
           | Ast.Constant v -> Slot_const (ip.ip_name, v)
           | Ast.Passed out -> Slot_passed (ip.ip_name, out))
         inv.in_params)
  in
  let ci =
    { ci_id = ctx.cx_n_invs;
      ci_fn = inv.fn;
      ci_fn_str = fn_str;
      ci_slots = slots;
      ci_default = compile_default_service ctx.cx_lib inv.fn fn_str }
  in
  ctx.cx_invs <- ci :: ctx.cx_invs;
  ctx.cx_n_invs <- ctx.cx_n_invs + 1;
  ci

let add_atom ctx lhs op rhs : int =
  let a =
    { at_id = ctx.cx_n_atoms;
      at_lhs = lhs;
      at_desc = Printf.sprintf "%s %s %s" lhs (op_name op) (Value.to_string rhs);
      at_test = compile_test op rhs }
  in
  ctx.cx_atoms <- a :: ctx.cx_atoms;
  ctx.cx_n_atoms <- ctx.cx_n_atoms + 1;
  a.at_id

(* --- predicate compilation -------------------------------------------------- *)

let max_stack code =
  (* exact along the straight-line scan: jumps are forward and a jump's
     target always sees the same depth as its fall-through path *)
  let depth = ref 0 and m = ref 0 in
  Array.iter
    (fun i ->
      match i with
      | PI_push _ | PI_atom _ | PI_external _ ->
          incr depth;
          if !depth > !m then m := !depth
      | PI_pop -> decr depth
      | PI_not | PI_jfalse _ | PI_jtrue _ -> ())
    code;
  !m

let rec compile_pred ctx (p : Ast.predicate) : pblock =
  let cap = ref 16 in
  let arr = ref (Array.make !cap (PI_push false)) in
  let n = ref 0 in
  let emit i =
    if !n = !cap then begin
      let a = Array.make (2 * !cap) (PI_push false) in
      Array.blit !arr 0 a 0 !n;
      arr := a;
      cap := 2 * !cap
    end;
    !arr.(!n) <- i;
    incr n
  in
  let rec go = function
    | Ast.P_true -> emit (PI_push true)
    | Ast.P_false -> emit (PI_push false)
    | Ast.P_not p ->
        go p;
        emit PI_not
    | Ast.P_and [] -> emit (PI_push true)  (* List.for_all [] *)
    | Ast.P_and ps -> chain ps (fun t -> PI_jfalse t)
    | Ast.P_or [] -> emit (PI_push false)  (* List.exists [] *)
    | Ast.P_or ps -> chain ps (fun t -> PI_jtrue t)
    | Ast.P_atom { lhs; op; rhs } -> emit (PI_atom (add_atom ctx lhs op rhs))
    | Ast.P_external { inv; pred } -> emit (PI_external (add_ext ctx inv pred))
  and chain ps mk =
    (* p1; Jcc L; POP; p2; Jcc L; POP; ...; pn; L: — the deciding operand
       stays on the stack at L, every decided-but-not-deciding operand is
       popped before its successor runs *)
    let jumps = ref [] in
    let rec loop = function
      | [] -> assert false
      | [ last ] -> go last
      | p :: rest ->
          go p;
          jumps := !n :: !jumps;
          emit (mk 0);
          emit PI_pop;
          loop rest
    in
    loop ps;
    let target = !n in
    List.iter (fun j -> !arr.(j) <- mk target) !jumps
  in
  go p;
  let code = Array.sub !arr 0 !n in
  let pb = { pb_id = ctx.cx_n_pblocks; pb_code = code; pb_stack = max_stack code } in
  ctx.cx_pblocks <- pb :: ctx.cx_pblocks;
  ctx.cx_n_pblocks <- ctx.cx_n_pblocks + 1;
  pb

and add_ext ctx inv pred : int =
  let ci = add_inv ctx inv in
  let pb = compile_pred ctx pred in
  let e = { ex_id = ctx.cx_n_exts; ex_inv = ci; ex_pred = pb } in
  ctx.cx_exts <- e :: ctx.cx_exts;
  ctx.cx_n_exts <- ctx.cx_n_exts + 1;
  e.ex_id

(* --- query plans ------------------------------------------------------------ *)

type qfun = Exec.state -> record -> record list

let qline ctx fmt =
  Printf.ksprintf
    (fun s ->
      let id = ctx.cx_n_q in
      ctx.cx_qlines <- Printf.sprintf "  q%d %s" id s :: ctx.cx_qlines;
      ctx.cx_n_q <- ctx.cx_n_q + 1;
      id)
    fmt

let rec compile_query ctx (q : Ast.query) : int * qfun =
  match q with
  | Ast.Q_invoke inv ->
      let ci = add_inv ctx inv in
      let id = qline ctx "INVOKE i%d" ci.ci_id in
      (id, fun rs bindings -> run_cinv rs bindings ci)
  | Ast.Q_filter (inner, p) ->
      let iid, fi = compile_query ctx inner in
      let pb = compile_pred ctx p in
      let id = qline ctx "FILTER q%d p%d" iid pb.pb_id in
      let tb = ctx.cx_tables in
      (id, fun rs bindings -> List.filter (fun r -> exec_pblock tb rs r pb) (fi rs bindings))
  | Ast.Q_join (a, b, on) ->
      let aid, fa = compile_query ctx a in
      let bid, fb = compile_query ctx b in
      let id =
        qline ctx "JOIN q%d q%d on=[%s]" aid bid
          (String.concat "; " (List.map (fun (ip, op) -> ip ^ " <- " ^ op) on))
      in
      ( id,
        fun rs bindings ->
          let results_a = fa rs bindings in
          List.concat_map
            (fun ra ->
              let extra_bindings =
                List.filter_map
                  (fun (ip, op) ->
                    match List.assoc_opt op ra with Some v -> Some (ip, v) | None -> None)
                  on
              in
              let results_b = fb rs (ra @ bindings) in
              let results_b =
                if on = [] then results_b else List.map (fun rb -> extra_bindings @ rb) results_b
              in
              List.map
                (fun rb -> List.filter (fun (n, _) -> not (List.mem_assoc n rb)) ra @ rb)
                results_b)
            results_a )
  | Ast.Q_aggregate { op; field; inner } -> (
      let iid, fi = compile_query ctx inner in
      match (op, field) with
      | Ast.Agg_count, _ ->
          let id = qline ctx "AGG count q%d" iid in
          ( id,
            fun rs bindings ->
              let results = fi rs bindings in
              [ [ ("count", Value.Number (float_of_int (List.length results))) ] ] )
      | _, None ->
          let id = qline ctx "AGG <missing field> q%d" iid in
          ( id,
            fun rs bindings ->
              (* the interpreter evaluates the inner query (consuming RNG)
                 before discovering the malformed aggregate *)
              let _results = fi rs bindings in
              rt_error "aggregate without a field" )
      | agg, Some f ->
          let agg_name =
            match agg with
            | Ast.Agg_max -> "max"
            | Ast.Agg_min -> "min"
            | Ast.Agg_sum -> "sum"
            | Ast.Agg_avg -> "avg"
            | Ast.Agg_count -> assert false
          in
          let id = qline ctx "AGG %s %s q%d" agg_name f iid in
          ( id,
            fun rs bindings ->
              let results = fi rs bindings in
              let nums =
                List.filter_map
                  (fun r -> Option.bind (List.assoc_opt f r) (Value.to_float ~now:rs.Exec.now))
                  results
              in
              if nums = [] then []
              else
                let v =
                  match agg with
                  | Ast.Agg_max -> List.fold_left max neg_infinity nums
                  | Ast.Agg_min -> List.fold_left min infinity nums
                  | Ast.Agg_sum -> List.fold_left ( +. ) 0.0 nums
                  | Ast.Agg_avg ->
                      List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)
                  | Ast.Agg_count -> assert false
                in
                [ [ (f, Value.Number v) ] ] ))

(* --- streams ---------------------------------------------------------------- *)

(* Per-run mutable stream state over compile-time-resolved plans. *)
type cstream =
  | CS_now of { mutable fired : bool }
  | CS_attimer
  | CS_timer of { base : Value.t; interval_days : float; mutable start : float option }
  | CS_monitor of { q : qfun; on_new : string list option; mutable prev : record list option }
  | CS_edge of { inner : cstream; pred : pblock; mutable prev : bool }

let rec compile_stream ctx (s : Ast.stream) : (unit -> cstream) * string =
  match s with
  | Ast.S_now -> ((fun () -> CS_now { fired = false }), "NOW")
  | Ast.S_attimer t -> ((fun () -> CS_attimer), Printf.sprintf "ATTIMER %s" (Value.to_string t))
  | Ast.S_timer { base; interval } ->
      let interval_days =
        match interval with
        | Value.Measure terms ->
            List.fold_left (fun acc (n, u) -> acc +. Ttype.Units.to_base n u) 0.0 terms
            /. 86400e3
        | _ -> 1.0
      in
      let interval_days = max interval_days 1e-6 in
      ( (fun () -> CS_timer { base; interval_days; start = None }),
        Printf.sprintf "TIMER base=%s interval_days=%g" (Value.to_string base) interval_days )
  | Ast.S_monitor (q, on_new) ->
      let qid, fq = compile_query ctx q in
      let desc =
        Printf.sprintf "MONITOR q%d%s" qid
          (match on_new with
          | None -> ""
          | Some fields -> Printf.sprintf " on_new=[%s]" (String.concat "; " fields))
      in
      ((fun () -> CS_monitor { q = fq; on_new; prev = None }), desc)
  | Ast.S_edge (inner, p) ->
      let finner, inner_desc = compile_stream ctx inner in
      let pb = compile_pred ctx p in
      ( (fun () -> CS_edge { inner = finner (); pred = pb; prev = false }),
        Printf.sprintf "EDGE (%s) p%d" inner_desc pb.pb_id )

(* Copy of Exec.new_records: monitor freshness against the previous result
   set, projected to the monitored fields when 'on new' is given. *)
let new_records ~on_new ~prev ~cur =
  let project r =
    match on_new with
    | None -> r
    | Some fields -> List.filter (fun (n, _) -> List.mem n fields) r
  in
  match prev with
  | None -> cur
  | Some prev -> List.filter (fun r -> not (List.exists (fun p -> project p = project r) prev)) cur

let rec step_cstream (tb : tables) (rs : Exec.state) (st : cstream) : record list =
  match st with
  | CS_now n ->
      if n.fired then []
      else begin
        n.fired <- true;
        [ [] ]
      end
  | CS_attimer -> if Float.is_integer rs.Exec.now then [ [] ] else []
  | CS_timer t ->
      let start =
        match t.start with
        | Some s -> s
        | None ->
            let s =
              match t.base with
              | Value.Date d -> Value.date_to_days ~now:rs.Exec.now d
              | _ -> rs.Exec.now
            in
            t.start <- Some s;
            s
      in
      let elapsed = rs.Exec.now -. start in
      if elapsed < -1e-9 then []
      else
        let k = elapsed /. t.interval_days in
        if Float.abs (k -. Float.round k) < 1e-9 then [ [] ] else []
  | CS_monitor m ->
      let cur = m.q rs [] in
      let fresh = new_records ~on_new:m.on_new ~prev:m.prev ~cur in
      m.prev <- Some cur;
      fresh
  | CS_edge e ->
      let inner_events = step_cstream tb rs e.inner in
      List.filter_map
        (fun r ->
          let now_true = exec_pblock tb rs r e.pred in
          let fires = now_true && not e.prev in
          e.prev <- now_true;
          if fires then Some r else None)
        inner_events

(* --- actions ---------------------------------------------------------------- *)

type caction = CA_notify | CA_invoke of cinv

let exec_caction (rs : Exec.state) ~(bindings : record) = function
  | CA_notify -> rs.Exec.notifications <- bindings :: rs.Exec.notifications
  | CA_invoke ci ->
      let args = resolve_slots bindings ci in
      rs.Exec.side_effects <- (ci.ci_fn, args) :: rs.Exec.side_effects

(* --- compiled programs ------------------------------------------------------ *)

type t = {
  source : Ast.program;
  tables : tables;
  new_stream : unit -> cstream;
  query : qfun option;
  action : caction;
  listing : string;
  digest : string;
}

let pinstr_desc = function
  | PI_push b -> if b then "PUSH true" else "PUSH false"
  | PI_not -> "NOT"
  | PI_pop -> "POP"
  | PI_atom i -> Printf.sprintf "ATOM a%d" i
  | PI_external i -> Printf.sprintf "EXT e%d" i
  | PI_jfalse t -> Printf.sprintf "JFALSE %d" t
  | PI_jtrue t -> Printf.sprintf "JTRUE %d" t

let render_listing ctx ~source_text ~stream_desc ~root_q ~action_desc =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "== thingtalk bytecode ==";
  line "source: %s" source_text;
  let invs = List.rev ctx.cx_invs in
  line "invocations: %d" (List.length invs);
  List.iter
    (fun ci ->
      line "  i%d %s in=[%s]" ci.ci_id ci.ci_fn_str
        (String.concat "; " (Array.to_list (Array.map slot_desc ci.ci_slots))))
    invs;
  let atoms = List.rev ctx.cx_atoms in
  line "atoms: %d" (List.length atoms);
  List.iter (fun a -> line "  a%d %s" a.at_id a.at_desc) atoms;
  let exts = List.rev ctx.cx_exts in
  line "externals: %d" (List.length exts);
  List.iter (fun e -> line "  e%d i%d p%d" e.ex_id e.ex_inv.ci_id e.ex_pred.pb_id) exts;
  let pbs = List.rev ctx.cx_pblocks in
  line "predicates: %d" (List.length pbs);
  List.iter
    (fun pb ->
      line "  p%d (stack %d):" pb.pb_id pb.pb_stack;
      Array.iteri (fun i ins -> line "    %02d %s" i (pinstr_desc ins)) pb.pb_code)
    pbs;
  line "query plan: %d node%s" ctx.cx_n_q (if ctx.cx_n_q = 1 then "" else "s");
  List.iter (fun l -> line "%s" l) (List.rev ctx.cx_qlines);
  (match root_q with
  | Some id -> line "  root q%d" id
  | None -> line "  root <none>");
  line "stream: %s" stream_desc;
  line "action: %s" action_desc;
  Buffer.contents b

let listing t = t.listing
let digest t = t.digest
let source t = t.source

let compile lib (program : Ast.program) : t =
  (match Typecheck.check_program lib program with
  | Ok () -> ()
  | Error e -> rt_error "ill-typed program: %s" e);
  let tables = { atoms = [||]; exts = [||] } in
  let ctx =
    { cx_lib = lib;
      cx_tables = tables;
      cx_invs = [];
      cx_n_invs = 0;
      cx_atoms = [];
      cx_n_atoms = 0;
      cx_exts = [];
      cx_n_exts = 0;
      cx_pblocks = [];
      cx_n_pblocks = 0;
      cx_qlines = [];
      cx_n_q = 0 }
  in
  let new_stream, stream_desc = compile_stream ctx program.stream in
  let root_q, query =
    match program.query with
    | None -> (None, None)
    | Some q ->
        let id, f = compile_query ctx q in
        (Some id, Some f)
  in
  let action, action_desc =
    match program.action with
    | Ast.A_notify -> (CA_notify, "NOTIFY")
    | Ast.A_invoke inv ->
        let ci = add_inv ctx inv in
        (CA_invoke ci, Printf.sprintf "INVOKE i%d" ci.ci_id)
  in
  tables.atoms <- Array.of_list (List.rev ctx.cx_atoms);
  tables.exts <- Array.of_list (List.rev ctx.cx_exts);
  let listing =
    render_listing ctx
      ~source_text:(Printer.program_to_string program)
      ~stream_desc ~root_q ~action_desc
  in
  let digest = Genie_util.Hash64.(to_hex (string 0x7447c0deL listing)) in
  { source = program; tables; new_stream; query; action; listing; digest }

(* Mirrors the Exec.run driver loop over the compiled plans. *)
let run ?(ticks = 1) ?(step = 1.0) (env : Exec.env) (t : t) =
  let rs = Exec.start env in
  let st = t.new_stream () in
  for tick = 0 to ticks - 1 do
    rs.Exec.now <- float_of_int tick *. step;
    let events = step_cstream t.tables rs st in
    List.iter
      (fun event ->
        let rows =
          match t.query with
          | None -> [ event ]
          | Some fq ->
              List.map
                (fun r -> List.filter (fun (n, _) -> not (List.mem_assoc n r)) event @ r)
                (fq rs event)
        in
        List.iter (fun row -> exec_caction rs ~bindings:row t.action) rows)
      events
  done;
  Exec.results rs

let exec_compiled ?ticks ?step env program = run ?ticks ?step env (compile env.Exec.lib program)
