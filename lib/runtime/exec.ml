(* The ThingTalk runtime: executes programs against mock services driven by a
   virtual clock.

   The semantics implemented here follows section 2.3 of the paper: queries
   always return lists (single results become singleton lists) which are
   implicitly traversed; each result can feed input parameters of subsequent
   invocations; monitors fire when a query's result changes; edge filters fire
   when their predicate transitions from false to true. *)

open Genie_thingtalk

type record = (string * Value.t) list

(* A mock backing service for one skill function: produces that function's
   results for given arguments at a given virtual time. *)
type service = {
  generate :
    now:float -> rng:Genie_util.Rng.t -> args:(string * Value.t) list -> record list;
}

(* Read-only between runs: everything a run mutates lives in its [state]. *)
type env = {
  lib : Schema.Library.t;
  services : (string, service) Hashtbl.t;
  seed : int;
}

(* One run's mutable state. The accumulators are newest-first and reversed
   once when the run ends. *)
type state = {
  env : env;
  mutable now : float; (* virtual day count *)
  rng : Genie_util.Rng.t;
  mutable notifications : record list;
  mutable side_effects : (Ast.Fn.t * record) list;
}

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* --- default mock data ---------------------------------------------------- *)

(* Deterministic pseudo-data derived from (function, parameter, time bucket,
   row). Monitorable functions change with time so monitors have something to
   observe; non-monitorable ones (e.g. a random cat picture) change on every
   call. *)
let default_value_for ~fn ~row ~bucket (p : Schema.param) : Value.t =
  let key = Printf.sprintf "%s/%s/%d/%d" (Ast.Fn.to_string fn) p.Schema.p_name row bucket in
  let h = Hashtbl.hash key in
  let rec gen (ty : Ttype.t) : Value.t =
    match ty with
    | Ttype.String -> Value.String (Printf.sprintf "%s item %d" p.Schema.p_name (h mod 97))
    | Ttype.Number -> Value.Number (float_of_int (h mod 1000))
    | Ttype.Boolean -> Value.Boolean (h mod 2 = 0)
    | Ttype.Date -> Value.Date (Value.D_absolute { year = 2019; month = 1 + (h mod 12); day = 1 + (h mod 28) })
    | Ttype.Time -> Value.Time (h mod 24, h mod 60)
    | Ttype.Location -> Value.Location (Value.L_named (Printf.sprintf "place %d" (h mod 50)))
    | Ttype.Path_name -> Value.String (Printf.sprintf "/folder/file_%d.txt" (h mod 100))
    | Ttype.Url -> Value.String (Printf.sprintf "https://example.com/%d" (h mod 1000))
    | Ttype.Picture -> Value.String (Printf.sprintf "https://img.example.com/%d.jpg" (h mod 1000))
    | Ttype.Phone_number -> Value.String (Printf.sprintf "+1555%07d" (h mod 10000000))
    | Ttype.Email_address -> Value.String (Printf.sprintf "user%d@example.com" (h mod 1000))
    | Ttype.Currency -> Value.Currency (float_of_int (h mod 500), "usd")
    | Ttype.Measure u -> Value.Measure [ (float_of_int (h mod 100), u) ]
    | Ttype.Enum (v :: _ as vs) -> Value.Enum (List.nth vs (h mod List.length vs) |> fun x -> ignore v; x)
    | Ttype.Enum [] -> Value.Enum "none"
    | Ttype.Entity ety ->
        Value.Entity { ty = ety; value = Printf.sprintf "%s %d" ety (h mod 200); display = None }
    | Ttype.Array elt -> Value.Array [ gen elt; gen elt ]
  in
  gen p.Schema.p_type

let default_service lib fn : service =
  { generate =
      (fun ~now ~rng ~args ->
        ignore args;
        match Schema.Library.find_fn lib fn with
        | None -> error "no such function %s" (Ast.Fn.to_string fn)
        | Some f ->
            let outs = Schema.out_params f in
            let monitorable = Schema.is_monitorable f in
            (* time bucket: monitorable data changes every 3 virtual days;
               non-monitorable data changes on every call *)
            let bucket =
              if monitorable then int_of_float now / 3
              else Genie_util.Rng.int rng 1000000
            in
            let rows = if Schema.is_list f then 3 else 1 in
            List.init rows (fun row ->
                List.map (fun p -> (p.Schema.p_name, default_value_for ~fn ~row ~bucket p)) outs))
  }

let create ?(seed = 42) lib = { lib; services = Hashtbl.create 64; seed }

(* Every run draws from the stream a fresh env's RNG would: a run depends on
   (env seed, program, ticks) only, never on the runs before it. *)
let start env =
  { env;
    now = 0.0;
    rng = Genie_util.Rng.create env.seed;
    notifications = [];
    side_effects = [] }

let results rs = (List.rev rs.notifications, List.rev rs.side_effects)

let register_service env fn service =
  Hashtbl.replace env.services (Ast.Fn.to_string fn) service

let service_for env fn =
  match Hashtbl.find_opt env.services (Ast.Fn.to_string fn) with
  | Some s -> s
  | None -> default_service env.lib fn

(* --- predicate evaluation -------------------------------------------------- *)

let lookup record name = List.assoc_opt name record

let value_compare_num ~now a b =
  match (Value.to_float ~now a, Value.to_float ~now b) with
  | Some x, Some y -> Some (compare x y)
  | _ -> None

let string_of_value_raw = function
  | Value.String s -> Some s
  | Value.Entity { value; _ } -> Some value
  | Value.Enum e -> Some e
  | _ -> None

let rec eval_predicate rs (record : record) (p : Ast.predicate) : bool =
  let now = rs.now in
  match p with
  | Ast.P_true -> true
  | Ast.P_false -> false
  | Ast.P_not p -> not (eval_predicate rs record p)
  | Ast.P_and ps -> List.for_all (eval_predicate rs record) ps
  | Ast.P_or ps -> List.exists (eval_predicate rs record) ps
  | Ast.P_atom { lhs; op; rhs } -> (
      match lookup record lhs with
      | None -> false
      | Some v -> eval_atom ~now v op rhs)
  | Ast.P_external { inv; pred } ->
      (* the predicate holds if some result of the external query satisfies
         the inner predicate *)
      let results = eval_invocation rs ~bindings:record inv in
      List.exists (fun r -> eval_predicate rs r pred) results

and eval_atom ~now (v : Value.t) (op : Ast.comp_op) (rhs : Value.t) : bool =
  let str_op f =
    match (string_of_value_raw v, string_of_value_raw rhs) with
    | Some a, Some b -> f (String.lowercase_ascii a) (String.lowercase_ascii b)
    | _ -> false
  in
  match op with
  | Ast.Op_eq -> Value.runtime_equal ~now v rhs
  | Ast.Op_neq -> not (Value.runtime_equal ~now v rhs)
  | Ast.Op_gt -> (match value_compare_num ~now v rhs with Some c -> c > 0 | None -> false)
  | Ast.Op_lt -> (match value_compare_num ~now v rhs with Some c -> c < 0 | None -> false)
  | Ast.Op_geq -> (match value_compare_num ~now v rhs with Some c -> c >= 0 | None -> false)
  | Ast.Op_leq -> (match value_compare_num ~now v rhs with Some c -> c <= 0 | None -> false)
  | Ast.Op_substr -> str_op (fun a b -> Genie_util.Tok.contains_substring ~sub:b a)
  | Ast.Op_starts_with -> str_op (fun a b -> Genie_util.Tok.starts_with ~prefix:b a)
  | Ast.Op_ends_with -> str_op (fun a b -> Genie_util.Tok.ends_with ~suffix:b a)
  | Ast.Op_contains -> (
      match v with
      | Value.Array elems -> List.exists (fun e -> Value.runtime_equal ~now e rhs) elems
      | _ -> str_op (fun a b -> Genie_util.Tok.contains_substring ~sub:b a))
  | Ast.Op_in_array -> (
      match rhs with
      | Value.Array elems -> List.exists (fun e -> Value.runtime_equal ~now v e) elems
      | _ -> false)

(* --- query evaluation ------------------------------------------------------ *)

and resolve_in_params ~bindings (inv : Ast.invocation) : (string * Value.t) list =
  List.map
    (fun (ip : Ast.in_param) ->
      match ip.ip_value with
      | Ast.Constant v -> (ip.ip_name, v)
      | Ast.Passed out_name -> (
          match lookup bindings out_name with
          | Some v -> (ip.ip_name, v)
          | None -> error "unbound output parameter %s" out_name))
    inv.in_params

and eval_invocation rs ~bindings (inv : Ast.invocation) : record list =
  let args = resolve_in_params ~bindings inv in
  let service = service_for rs.env inv.fn in
  let results = service.generate ~now:rs.now ~rng:rs.rng ~args in
  (* input parameters are also visible downstream (e.g. folder_name) *)
  List.map (fun r -> args @ r) results

and eval_query rs ~bindings (q : Ast.query) : record list =
  match q with
  | Ast.Q_invoke inv -> eval_invocation rs ~bindings inv
  | Ast.Q_filter (inner, p) ->
      List.filter (fun r -> eval_predicate rs r p) (eval_query rs ~bindings inner)
  | Ast.Q_join (a, b, on) ->
      let results_a = eval_query rs ~bindings a in
      List.concat_map
        (fun ra ->
          (* parameter passing from the left operand into the right *)
          let extra_bindings =
            List.filter_map
              (fun (ip, op) ->
                match lookup ra op with
                | Some v -> Some (ip, v)
                | None -> None)
              on
          in
          let results_b = eval_query rs ~bindings:(ra @ bindings) b in
          let results_b =
            if on = [] then results_b
            else
              List.map (fun rb -> extra_bindings @ rb) results_b
          in
          (* cross product; on duplicate names the rightmost instance wins *)
          List.map
            (fun rb -> List.filter (fun (n, _) -> not (List.mem_assoc n rb)) ra @ rb)
            results_b)
        results_a
  | Ast.Q_aggregate { op; field; inner } -> (
      let results = eval_query rs ~bindings inner in
      match (op, field) with
      | Ast.Agg_count, _ -> [ [ ("count", Value.Number (float_of_int (List.length results))) ] ]
      | _, None -> error "aggregate without a field"
      | agg, Some f ->
          let nums =
            List.filter_map
              (fun r -> Option.bind (lookup r f) (Value.to_float ~now:rs.now))
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
            [ [ (f, Value.Number v) ] ])

(* --- streams ---------------------------------------------------------------- *)

(* Persistent state threaded across virtual-clock ticks. *)
type stream_state =
  | St_now of { mutable fired : bool }
  | St_attimer of Value.t
  | St_timer of { base : Value.t; interval_days : float; mutable start : float option }
  | St_monitor of { query : Ast.query; on_new : string list option; mutable prev : record list option }
  | St_edge of { inner : stream_state; pred : Ast.predicate; mutable prev : bool }

let rec init_stream_state (s : Ast.stream) : stream_state =
  match s with
  | Ast.S_now -> St_now { fired = false }
  | Ast.S_attimer t -> St_attimer t
  | Ast.S_timer { base; interval } ->
      let interval_days =
        match interval with
        | Value.Measure terms ->
            List.fold_left (fun acc (n, u) -> acc +. Ttype.Units.to_base n u) 0.0 terms
            /. 86400e3
        | _ -> 1.0
      in
      St_timer { base; interval_days = max interval_days 1e-6; start = None }
  | Ast.S_monitor (q, on_new) -> St_monitor { query = q; on_new; prev = None }
  | Ast.S_edge (inner, p) -> St_edge { inner = init_stream_state inner; pred = p; prev = false }

(* Records produced by monitor comparison: those not present in the previous
   result set (projected to the monitored fields if 'on new' is given). *)
let new_records ~on_new ~prev ~cur =
  let project r =
    match on_new with
    | None -> r
    | Some fields -> List.filter (fun (n, _) -> List.mem n fields) r
  in
  match prev with
  | None -> cur (* first evaluation of a monitor seeds the stream *)
  | Some prev -> List.filter (fun r -> not (List.exists (fun p -> project p = project r) prev)) cur

(* One tick: the events (each a record of bindings) the stream emits now. *)
let rec step_stream rs (st : stream_state) : record list =
  match st with
  | St_now n -> if n.fired then [] else (n.fired <- true; [ [] ])
  | St_attimer _ ->
      (* fires once per virtual day *)
      if Float.is_integer rs.now then [ [] ] else []
  | St_timer t ->
      (* the base date is resolved once, when the program starts *)
      let start =
        match t.start with
        | Some s -> s
        | None ->
            let s =
              match t.base with
              | Value.Date d -> Value.date_to_days ~now:rs.now d
              | _ -> rs.now
            in
            t.start <- Some s;
            s
      in
      let interval_days = t.interval_days in
      let elapsed = rs.now -. start in
      if elapsed < -1e-9 then []
      else
        let k = elapsed /. interval_days in
        if Float.abs (k -. Float.round k) < 1e-9 then [ [] ] else []
  | St_monitor m ->
      let cur = eval_query rs ~bindings:[] m.query in
      let fresh = new_records ~on_new:m.on_new ~prev:m.prev ~cur in
      m.prev <- Some cur;
      fresh
  | St_edge e ->
      let inner_events = step_stream rs e.inner in
      List.filter_map
        (fun r ->
          let now_true = eval_predicate rs r e.pred in
          let fires = now_true && not e.prev in
          e.prev <- now_true;
          if fires then Some r else None)
        inner_events

(* --- whole programs --------------------------------------------------------- *)

let execute_action rs ~bindings (a : Ast.action) =
  match a with
  | Ast.A_notify -> rs.notifications <- bindings :: rs.notifications
  | Ast.A_invoke inv ->
      let args = resolve_in_params ~bindings inv in
      rs.side_effects <- (inv.fn, args) :: rs.side_effects

(* Runs [program] for [ticks] steps of the virtual clock (one step = one
   virtual day by default) in a fresh run state. Returns this run's
   notifications and side effects, in order. *)
let run ?(ticks = 1) ?(step = 1.0) env (program : Ast.program) =
  (match Typecheck.check_program env.lib program with
  | Ok () -> ()
  | Error e -> error "ill-typed program: %s" e);
  let rs = start env in
  let st = init_stream_state program.stream in
  for tick = 0 to ticks - 1 do
    rs.now <- float_of_int tick *. step;
    let events = step_stream rs st in
    List.iter
      (fun event ->
        let rows =
          match program.query with
          | None -> [ event ]
          | Some q ->
              List.map
                (fun r -> List.filter (fun (n, _) -> not (List.mem_assoc n r)) event @ r)
                (eval_query rs ~bindings:event q)
        in
        List.iter (fun row -> execute_action rs ~bindings:row program.action) rows)
      events
  done;
  results rs

let eval_predicate env record p = eval_predicate (start env) record p
