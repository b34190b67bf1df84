(* Tests for the ThingTalk compiler (lib/runtime/compile.ml): snapshot
   goldens pinning lexed/typechecked/compiled/executed output for every
   Thingpedia function class, a differential QCheck suite asserting
   compiled execution is byte-identical to the tree-walking interpreter
   over hundreds of seeded well-typed programs, cache transparency, and
   compile-cache LRU boundary behavior.

   Snapshot layout (docs/compilation.md): test/snapshot/<case>/program.tt
   is the checked-in source, the test writes <case>.out in the build
   directory and compares it against the checked-in
   test/snapshot/<case>/intended. Regold with COMPILE_REGOLD=1, which
   rewrites the intended files (and materializes missing cases) in the
   source tree. *)

open Genie_thingtalk
module Exec = Genie_runtime.Exec
module Compile = Genie_runtime.Compile
module Compile_cache = Genie_runtime.Compile_cache
module Rng = Genie_util.Rng

let lib = lazy (Genie_thingpedia.Thingpedia.full_library ())

(* --- rendering execution outcomes ----------------------------------------- *)

let record_to_string (r : Exec.record) =
  "{" ^ String.concat "; " (List.map (fun (n, v) -> n ^ " = " ^ Value.to_string v) r) ^ "}"

let render_result (notifications, side_effects) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "notifications: %d\n" (List.length notifications));
  List.iter (fun r -> Buffer.add_string b ("  " ^ record_to_string r ^ "\n")) notifications;
  Buffer.add_string b (Printf.sprintf "side_effects: %d\n" (List.length side_effects));
  List.iter
    (fun (fn, r) ->
      Buffer.add_string b ("  " ^ Ast.Fn.to_string fn ^ " " ^ record_to_string r ^ "\n"))
    side_effects;
  Buffer.contents b

(* Byte-comparable outcome of one execution, errors included: the
   differential contract covers the failure paths too. *)
let outcome f =
  match f () with
  | res -> "ok\n" ^ render_result res
  | exception Exec.Runtime_error e -> "runtime error: " ^ e ^ "\n"

let interp_outcome ?(seed = 42) ?(ticks = 1) p () =
  let env = Exec.create ~seed (Lazy.force lib) in
  Exec.run ~ticks env p

let compiled_outcome ?(seed = 42) ?(ticks = 1) p () =
  let env = Exec.create ~seed (Lazy.force lib) in
  Compile.exec_compiled ~ticks env p

let check_differential label ?seed ?ticks p =
  let i = outcome (interp_outcome ?seed ?ticks p) in
  let c = outcome (compiled_outcome ?seed ?ticks p) in
  if i <> c then
    Alcotest.failf "%s: compiled execution diverged from interpreter\n  program: %s\n  interpreted:\n%s\n  compiled:\n%s"
      label (Printer.program_to_string p) i c

(* --- snapshot cases --------------------------------------------------------- *)

let snapshot_ticks = 5

(* A deterministic representative program for one Thingpedia class: its
   first query (all parameters filled) feeding its first action, or
   whichever half exists. *)
let class_program (c : Schema.cls) : Ast.program =
  let queries = List.filter Schema.is_query c.Schema.c_functions in
  let actions = List.filter Schema.is_action c.Schema.c_functions in
  let inv f = Suite_dsl.inv_of ~fill_optional:true f in
  match (queries, actions) with
  | q :: _, a :: _ ->
      { Ast.stream = Ast.S_now; query = Some (Ast.Q_invoke (inv q)); action = Ast.A_invoke (inv a) }
  | q :: _, [] ->
      { Ast.stream = Ast.S_now; query = Some (Ast.Q_invoke (inv q)); action = Ast.A_notify }
  | [], a :: _ -> { Ast.stream = Ast.S_now; query = None; action = Ast.A_invoke (inv a) }
  | [], [] -> { Ast.stream = Ast.S_now; query = None; action = Ast.A_notify }

(* Hand-picked feature cases covering each construct the compiler lowers. *)
let feature_cases =
  [ ("feature_filter", "now => (@com.gmail.inbox()) filter is_important == true => notify;");
    ("feature_param_passing", "now => @com.gmail.inbox() => @com.facebook.post(status = snippet);");
    ("feature_join", "now => @com.gmail.inbox() join @com.bbc.get_news() => notify;");
    ("feature_monitor", "monitor (@com.gmail.inbox()) => notify;");
    ( "feature_edge",
      "edge (monitor (@com.nest.thermostat.get_temperature())) on value < 40C => notify;" );
    ("feature_timer", "timer base = $now interval = 2day => notify;");
    ("feature_attimer", "attimer time = time(8,0) => notify;");
    ("feature_agg_count", "now => agg count of (@com.gmail.inbox()) => notify;");
    ("feature_agg_sum", "now => agg sum file_size of (@com.dropbox.list_folder()) => notify;");
    ( "feature_external_pred",
      "now => (@com.gmail.inbox()) filter @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;" ) ]

let class_cases () =
  List.map
    (fun (c : Schema.cls) ->
      ("class_" ^ c.Schema.c_name, Printer.program_to_string (class_program c) ^ "\n"))
    (Lazy.force lib).Schema.Library.classes

let all_cases () =
  class_cases () @ List.map (fun (n, text) -> (n, text ^ "\n")) feature_cases

(* The snapshot content: every stage of the pipeline for one program. *)
let snapshot_of_source (source : string) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  add "== source ==\n%s" source;
  (match Lexer.tokenize (String.trim source) with
  | tokens ->
      add "== tokens ==\n";
      List.iter (fun t -> add "%s\n" (Lexer.token_to_string t)) tokens
  | exception Lexer.Error e -> add "== tokens ==\nlex error: %s\n" e);
  (match Parser.parse_program (String.trim source) with
  | exception e -> add "== parse ==\nparse error: %s\n" (Printexc.to_string e)
  | p ->
      add "== typecheck ==\n";
      (match Typecheck.check_program (Lazy.force lib) p with
      | Ok () -> add "ok\n"
      | Error e -> add "error: %s\n" e);
      add "== bytecode ==\n";
      (match Compile.compile (Lazy.force lib) p with
      | c -> add "digest: %s\n%s" (Compile.digest c) (Compile.listing c)
      | exception Exec.Runtime_error e -> add "compile error: %s\n" e);
      add "== exec ticks=%d seed=42 ==\n" snapshot_ticks;
      let i = outcome (interp_outcome ~ticks:snapshot_ticks p) in
      let c = outcome (compiled_outcome ~ticks:snapshot_ticks p) in
      if i <> c then
        add "DIVERGED\ninterpreted:\n%scompiled:\n%s" i c
      else add "%s" i);
  Buffer.contents b

(* Locate the checked-in snapshot tree (dune copies it next to the test
   binary) and, for regolding, the same tree in the source directory. *)
let snapshot_dir () =
  if Sys.file_exists "snapshot" then "snapshot"
  else if Sys.file_exists "test/snapshot" then "test/snapshot"
  else Alcotest.fail "snapshot directory not found (run from dune)"

let source_snapshot_dir () =
  (* the source test directory, reached from wherever dune ran us
     (_build/default/test or _build/default) — identified by containing
     this very file *)
  let candidates = [ "../../../test"; "../../test"; "test" ] in
  Option.map
    (fun d -> Filename.concat d "snapshot")
    (List.find_opt (fun d -> Sys.file_exists (Filename.concat d "suite_compile.ml")) candidates)

let regold = Sys.getenv_opt "COMPILE_REGOLD" <> None

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let regold_case name ~source ~out =
  match source_snapshot_dir () with
  | None -> Printf.printf "COMPILE_REGOLD: cannot locate source tree for %s\n%!" name
  | Some root ->
      let dir = Filename.concat root name in
      mkdirs dir;
      write_file (Filename.concat dir "program.tt") source;
      write_file (Filename.concat dir "intended") out;
      Printf.printf "COMPILE_REGOLD: wrote %s\n%!" dir

let test_snapshots () =
  let cases = all_cases () in
  Alcotest.(check bool) "covers every Thingpedia class" true
    (List.length (class_cases ()) >= Schema.Library.num_classes (Lazy.force lib));
  let failures = ref [] in
  List.iter
    (fun (name, default_source) ->
      let dir = Filename.concat (snapshot_dir ()) name in
      let tt = Filename.concat dir "program.tt" in
      (* the checked-in source wins; the built-in text only seeds regold *)
      let source = if Sys.file_exists tt then read_file tt else default_source in
      let out = snapshot_of_source source in
      (* always materialize <case>.out next to the test binary for diffing *)
      (try
         let outdir = Filename.concat (snapshot_dir ()) name in
         if Sys.file_exists outdir then write_file (Filename.concat outdir "out") out
       with _ -> ());
      if regold then regold_case name ~source ~out
      else
        let intended_path = Filename.concat dir "intended" in
        if not (Sys.file_exists intended_path) then
          failures := Printf.sprintf "%s: missing %s (run with COMPILE_REGOLD=1)" name intended_path :: !failures
        else
          let intended = read_file intended_path in
          if intended <> out then
            failures := Printf.sprintf "%s: out differs from intended" name :: !failures)
    cases;
  (match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "snapshot mismatches:\n  %s" (String.concat "\n  " (List.rev fs)))

(* every snapshot case must agree between interpreter and compiled code;
   test_snapshots would embed DIVERGED in the out file, but assert directly
   too so the failure message is readable *)
let test_snapshot_cases_differential () =
  List.iter
    (fun (name, source) ->
      match Parser.parse_program (String.trim source) with
      | exception _ -> ()
      | p -> check_differential name ~ticks:snapshot_ticks p)
    (all_cases ())

(* --- differential QCheck suite --------------------------------------------- *)

let differential_count = 250

let test_differential_random () =
  for seed = 1 to differential_count do
    let rng = Rng.create seed in
    let p = Suite_dsl.gen_program rng in
    let ticks = 1 + (seed mod 7) in
    check_differential (Printf.sprintf "seed %d" seed) ~seed:(1000 + seed) ~ticks p
  done

(* every run on an env starts from the same state: rounds 2 and 3 on one
   env repeat round 1 and a fresh env's run, on both paths *)
let test_differential_repeated_runs_pure () =
  let p = Parser.parse_program "monitor (@com.gmail.inbox()) => notify;" in
  let l = Lazy.force lib in
  let env_i = Exec.create ~seed:7 l in
  let env_c = Exec.create ~seed:7 l in
  let c = Compile.compile l p in
  let fresh = render_result (Exec.run ~ticks:4 (Exec.create ~seed:7 l) p) in
  for round = 1 to 3 do
    let i = render_result (Exec.run ~ticks:4 env_i p) in
    let cr = render_result (Compile.run ~ticks:4 env_c c) in
    Alcotest.(check string) (Printf.sprintf "round %d: compiled = interpreted" round) i cr;
    Alcotest.(check string) (Printf.sprintf "round %d: interpreted = fresh env" round) fresh i;
    Alcotest.(check string) (Printf.sprintf "round %d: compiled = fresh env" round) fresh cr
  done

(* custom services registered on the env override the pre-resolved default *)
let test_differential_custom_service () =
  let p = Parser.parse_program "now => @com.gmail.inbox() => notify;" in
  let l = Lazy.force lib in
  let fn = Ast.Fn.make "com.gmail" "inbox" in
  let service =
    { Exec.generate =
        (fun ~now:_ ~rng:_ ~args:_ -> [ [ ("subject", Value.String "custom row") ] ]) }
  in
  let env_i = Exec.create ~seed:3 l in
  let env_c = Exec.create ~seed:3 l in
  Exec.register_service env_i fn service;
  Exec.register_service env_c fn service;
  let i = render_result (Exec.run env_i p) in
  let c = render_result (Compile.exec_compiled env_c p) in
  Alcotest.(check string) "custom service honored" i c;
  Alcotest.(check bool) "custom rows visible" true
    (Genie_util.Tok.contains_substring ~sub:"custom row" i)

let test_error_parity_ill_typed () =
  let p = Parser.parse_program "now => @com.twitter.post();" in
  let i = outcome (interp_outcome p) in
  let c = outcome (compiled_outcome p) in
  Alcotest.(check string) "ill-typed error byte-identical" i c;
  Alcotest.(check bool) "is an error" true
    (Genie_util.Tok.starts_with ~prefix:"runtime error: ill-typed program" i)

(* --- compiled-program cache ------------------------------------------------- *)

let test_cache_transparency () =
  let l = Lazy.force lib in
  let cache = Compile_cache.create ~capacity:8 in
  let hits = ref 0 in
  for seed = 1 to 40 do
    let rng = Rng.create seed in
    let p = Suite_dsl.gen_program rng in
    let key = Canonical.canonical_string l p in
    let cold = Compile.compile l p in
    (* distinct random programs can share a canonical form, so the first
       lookup may legitimately hit an earlier seed's entry *)
    let dup = Compile_cache.mem cache key in
    (match Compile_cache.find_or_compile cache l ~key p with
    | `Hit _ ->
        incr hits;
        if not dup then Alcotest.failf "seed %d: first lookup hit a fresh key" seed
    | `Miss _ -> if dup then Alcotest.failf "seed %d: cached key missed" seed);
    let via_cache =
      match Compile_cache.find_or_compile cache l ~key p with
      | `Hit c ->
          incr hits;
          c
      | `Miss _ -> Alcotest.failf "seed %d: second lookup missed" seed
    in
    let run c () =
      let env = Exec.create ~seed:(200 + seed) l in
      Compile.run ~ticks:3 env c
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: hit result = cold compile result" seed)
      (outcome (run cold)) (outcome (run via_cache));
    Alcotest.(check string)
      (Printf.sprintf "seed %d: digests agree" seed)
      (Compile.digest cold) (Compile.digest via_cache)
  done;
  let stats = Compile_cache.stats cache in
  Alcotest.(check int) "hits" !hits stats.Compile_cache.hits;
  Alcotest.(check bool) "every round hit at least once" true (!hits >= 40);
  Alcotest.(check bool) "evictions happened at capacity 8" true (stats.Compile_cache.evictions > 0);
  Alcotest.(check int) "entries at capacity" 8 stats.Compile_cache.entries

(* LRU boundary behavior, mirroring suite_serve's parse-cache tests *)
let dummy_compiled =
  lazy (Compile.compile (Lazy.force lib) (Parser.parse_program "now => @com.gmail.inbox() => notify;"))

let test_cache_lru_eviction_order () =
  let c = Compile_cache.create ~capacity:2 in
  let v = Lazy.force dummy_compiled in
  Compile_cache.add c "a" v;
  Compile_cache.add c "b" v;
  ignore (Compile_cache.find c "a");
  Compile_cache.add c "c" v;
  (* "b" was least recently used *)
  Alcotest.(check bool) "a survives" true (Compile_cache.mem c "a");
  Alcotest.(check bool) "b evicted" false (Compile_cache.mem c "b");
  Alcotest.(check bool) "c present" true (Compile_cache.mem c "c");
  Alcotest.(check (list string)) "mru order" [ "c"; "a" ] (Compile_cache.keys_mru c)

let test_cache_capacity_one () =
  let c = Compile_cache.create ~capacity:1 in
  let v = Lazy.force dummy_compiled in
  Compile_cache.add c "a" v;
  Compile_cache.add c "b" v;
  Alcotest.(check int) "length" 1 (Compile_cache.length c);
  Alcotest.(check bool) "b present" true (Compile_cache.mem c "b");
  Alcotest.(check bool) "a evicted" false (Compile_cache.mem c "a")

let test_cache_capacity_zero () =
  let c = Compile_cache.create ~capacity:0 in
  let v = Lazy.force dummy_compiled in
  Compile_cache.add c "a" v;
  Alcotest.(check int) "nothing stored" 0 (Compile_cache.length c);
  Alcotest.(check bool) "find misses" true (Compile_cache.find c "a" = None);
  let stats = Compile_cache.stats c in
  Alcotest.(check int) "all misses" 1 stats.Compile_cache.misses

let test_cache_negative_capacity () =
  let c = Compile_cache.create ~capacity:(-3) in
  let v = Lazy.force dummy_compiled in
  Compile_cache.add c "a" v;
  Alcotest.(check int) "nothing stored" 0 (Compile_cache.length c);
  Alcotest.(check bool) "find misses" true (Compile_cache.find c "a" = None)

(* the generic LRU behind both caches: re-adding refreshes recency, clear
   drops entries but keeps lifetime counters *)
let test_lru_readd_refreshes () =
  let module Lru = Genie_util.Lru in
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  (* "a" is now most recent; adding "c" must evict "b" *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "a replaced" (Some 10) (Lru.find c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check int) "no duplicate entry for a" 2 (Lru.length c)

let test_lru_clear_keeps_counters () =
  let module Lru = Genie_util.Lru in
  let c = Lru.create ~capacity:4 in
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  ignore (Lru.find c "missing");
  Lru.clear c;
  Alcotest.(check int) "empty after clear" 0 (Lru.length c);
  Alcotest.(check (list string)) "no keys" [] (Lru.keys_mru c);
  let s = Lru.stats c in
  Alcotest.(check int) "hits survive clear" 1 s.Lru.hits;
  Alcotest.(check int) "misses survive clear" 1 s.Lru.misses;
  Alcotest.(check int) "entries reported zero" 0 s.Lru.entries;
  (* the cache still works after clear *)
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "usable after clear" (Some 2) (Lru.find c "b")

(* --- compiled form ----------------------------------------------------------- *)

let test_listing_digest_deterministic () =
  let l = Lazy.force lib in
  let p = Parser.parse_program "now => (@com.gmail.inbox()) filter is_important == true => notify;" in
  let c1 = Compile.compile l p in
  let c2 = Compile.compile l p in
  Alcotest.(check string) "listing stable" (Compile.listing c1) (Compile.listing c2);
  Alcotest.(check string) "digest stable" (Compile.digest c1) (Compile.digest c2);
  let q = Parser.parse_program "now => @com.gmail.inbox() => notify;" in
  Alcotest.(check bool) "different programs, different digests" true
    (Compile.digest c1 <> Compile.digest (Compile.compile l q));
  Alcotest.(check bool) "listing mentions the filter atom" true
    (Genie_util.Tok.contains_substring ~sub:"is_important" (Compile.listing c1))

let test_digest_format () =
  let l = Lazy.force lib in
  let is_hex ch = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') in
  List.iter
    (fun (name, text) ->
      let d = Compile.digest (Compile.compile l (Parser.parse_program text)) in
      Alcotest.(check int) (name ^ ": 16 chars") 16 (String.length d);
      Alcotest.(check bool) (name ^ ": lowercase hex") true (String.for_all is_hex d))
    feature_cases

let test_source_accessor () =
  let l = Lazy.force lib in
  let p = Parser.parse_program "monitor (@com.gmail.inbox()) => notify;" in
  let c = Compile.compile l p in
  Alcotest.(check string) "source round-trips through the compiled value"
    (Printer.program_to_string p)
    (Printer.program_to_string (Compile.source c))

(* parity must hold at every tick count, zero included (no stream
   advancement at all) *)
let test_differential_tick_sweep () =
  List.iter
    (fun (name, text) ->
      let p = Parser.parse_program text in
      List.iter
        (fun ticks -> check_differential (Printf.sprintf "%s ticks=%d" name ticks) ~ticks p)
        [ 0; 1; 3; 6 ])
    feature_cases

(* one compiled value executed concurrently from several domains: per-run
   stream state is private, so every domain must reproduce the sequential
   outcome byte for byte *)
let test_run_concurrent_domains () =
  let l = Lazy.force lib in
  let p = Parser.parse_program "monitor (@com.gmail.inbox()) => @com.facebook.post(status = snippet);" in
  let c = Compile.compile l p in
  let run seed () =
    let env = Exec.create ~seed l in
    Compile.run ~ticks:4 env c
  in
  let seeds = [ 11; 12; 13; 14 ] in
  let sequential = List.map (fun s -> outcome (run s)) seeds in
  let domains = List.map (fun s -> Domain.spawn (fun () -> outcome (run s))) seeds in
  let concurrent = List.map Domain.join domains in
  List.iteri
    (fun i (s, c) -> Alcotest.(check string) (Printf.sprintf "seed %d" (List.nth seeds i)) s c)
    (List.combine sequential concurrent)

(* different seeds produce different mock data, and parity holds per seed —
   the compiled path threads the RNG exactly like the interpreter *)
let test_seed_sensitivity_parity () =
  (* thecatapi.get is non-monitorable: every call draws a fresh RNG bucket,
     so the rows depend on the env seed *)
  let p = Parser.parse_program "now => @com.thecatapi.get() => notify;" in
  let outcomes =
    List.map
      (fun seed ->
        let i = outcome (interp_outcome ~seed p) in
        let c = outcome (compiled_outcome ~seed p) in
        Alcotest.(check string) (Printf.sprintf "seed %d parity" seed) i c;
        i)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "seeds actually vary the data" true
    (List.length (List.sort_uniq compare outcomes) > 1)

let test_short_circuit_preserved () =
  (* an external predicate draws RNG when evaluated; under && its partner
     decides first, so interpreter and compiled code must agree on whether
     the external ever runs (byte-identity of the RNG stream afterwards) *)
  let texts =
    [ "now => (@com.gmail.inbox()) filter false && @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;";
      "now => (@com.gmail.inbox()) filter true || @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;";
      "now => (@com.gmail.inbox()) filter is_important == true && @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;";
      "now => (@com.gmail.inbox()) filter !(is_important == true) || @org.thingpedia.weather.current(location = \
       location(\"paris\")) { temperature > 0C } => notify;" ]
  in
  List.iter
    (fun t -> check_differential t ~ticks:2 (Parser.parse_program t))
    texts

let suite =
  [ Alcotest.test_case "snapshot goldens (COMPILE_REGOLD=1 to regold)" `Quick test_snapshots;
    Alcotest.test_case "snapshot cases: compiled = interpreted" `Quick
      test_snapshot_cases_differential;
    Alcotest.test_case
      (Printf.sprintf "differential: %d random programs" differential_count)
      `Slow test_differential_random;
    Alcotest.test_case "differential: repeated runs on one env are pure" `Quick
      test_differential_repeated_runs_pure;
    Alcotest.test_case "differential: custom services honored" `Quick
      test_differential_custom_service;
    Alcotest.test_case "error parity: ill-typed programs" `Quick test_error_parity_ill_typed;
    Alcotest.test_case "cache transparency: hit = cold compile" `Quick test_cache_transparency;
    Alcotest.test_case "compile cache: LRU eviction order" `Quick test_cache_lru_eviction_order;
    Alcotest.test_case "compile cache: capacity one" `Quick test_cache_capacity_one;
    Alcotest.test_case "compile cache: capacity zero disables" `Quick test_cache_capacity_zero;
    Alcotest.test_case "compile cache: negative capacity disables" `Quick
      test_cache_negative_capacity;
    Alcotest.test_case "lru: re-add refreshes recency" `Quick test_lru_readd_refreshes;
    Alcotest.test_case "lru: clear keeps counters" `Quick test_lru_clear_keeps_counters;
    Alcotest.test_case "listing and digest deterministic" `Quick test_listing_digest_deterministic;
    Alcotest.test_case "digest format: 16 lowercase hex" `Quick test_digest_format;
    Alcotest.test_case "source accessor round-trips" `Quick test_source_accessor;
    Alcotest.test_case "differential: tick-count sweep" `Quick test_differential_tick_sweep;
    Alcotest.test_case "concurrent runs from domains" `Quick test_run_concurrent_domains;
    Alcotest.test_case "seed sensitivity with parity" `Quick test_seed_sensitivity_parity;
    Alcotest.test_case "short-circuit order preserved" `Quick test_short_circuit_preserved ]
