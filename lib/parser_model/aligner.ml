(* The Aligner semantic-parser backend.

   A fast statistical stand-in for the MQAN model (see DESIGN.md for the
   substitution argument) that preserves the causal structure of the paper's
   experiments:

   - the *skeleton inventory* (programs reachable by the decoder) comes from
     the training data, optionally extended by pretraining on a large
     synthesized program set -- the role of the pretrained decoder LM;
   - *lexical alignment* between sentence n-grams and program atoms is learned
     from (sentence, program) pairs -- synthesized data teaches
     compositionality across function combinations, paraphrases teach natural
     wording;
   - a *copy mechanism* fills string/entity slots with sentence spans, scored
     by per-parameter word statistics and gazette membership -- this is what
     parameter expansion trains.

   Decoding ranks candidate skeletons by alignment score plus prior, then
   fills slots. *)

open Genie_thingtalk

type config = {
  options : Nn_syntax.options; (* keyword-parameter / type-annotation ablations *)
  canonicalize : bool; (* ablation: canonical form of training targets *)
  use_decoder_lm : bool; (* ablation: pretrained program LM *)
  lm_programs : Ast.program list; (* the LM pretraining corpus *)
  gazette_size : int;
  seed : int;
  beam : int;
  max_candidates : int;
}

let default_config =
  { options = Nn_syntax.default_options;
    canonicalize = true;
    use_decoder_lm = true;
    lm_programs = [];
    gazette_size = 2000;
    seed = 123;
    beam = 6;
    max_candidates = 2500 }

(* Scoring features of a skeleton that depend only on the skeleton itself,
   fixed when its entry is created: its atoms (in [Skeleton.atoms] order)
   with their weights, the content atoms that can explain a sentence word,
   the size penalty and the two structural cues. *)
type features = {
  skeleton_atoms : string array;
  weights : float array;
  content_atoms : string array;
  size_penalty : float;
  is_stream : bool;
  passing : bool;
}

type skeleton_entry = {
  skeleton : Skeleton.t;
  key : string; (* [Skeleton.key skeleton] *)
  id : int; (* registration order in the inventory; -1 for composed entries *)
  features : features;
  mutable count : float; (* training prior *)
  mutable lm_count : float; (* pretraining prior *)
}

(* A reusable program clause for the compositional decoder, with the atoms
   that ground it in the sentence. *)
type clause =
  | C_stream of Ast.stream
  | C_query of Ast.query
  | C_action of Ast.action

type clause_entry = {
  clause : clause;
  atoms : string list;
  mutable c_count : float;
  mutable c_lm : float;
}

type t = {
  cfg : config;
  lib : Schema.Library.t;
  inventory : (string, skeleton_entry) Hashtbl.t;
  by_function : (string, string list ref) Hashtbl.t; (* function atom -> skeleton keys *)
  (* alignment counts *)
  ngram_counts : Genie_util.Counter.t;
  atom_counts : Genie_util.Counter.t;
  pair_counts : Genie_util.Counter.t; (* "atom || ngram" *)
  (* copy-mechanism statistics: "param || word" *)
  slot_word_counts : Genie_util.Counter.t;
  slot_param_counts : Genie_util.Counter.t;
  (* full value strings seen per parameter *)
  slot_value_counts : Genie_util.Counter.t;
  (* exact-sentence memorization (neural models do this too) *)
  memo : (string, Genie_util.Counter.t) Hashtbl.t;
  gazettes : Genie_augment.Gazettes.t;
  gazette_sets : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  (* clause fragments for the compositional decoder: streams, queries and
     actions seen in training/pretraining, recombinable at decode time *)
  streams : (string, clause_entry) Hashtbl.t;
  queries : (string, clause_entry) Hashtbl.t;
  actions : (string, clause_entry) Hashtbl.t;
  mutable trained_examples : int;
  (* Derived at the end of [train] from [by_function], never written
     afterwards: per function atom (in [by_function] fold order), its
     skeletons sorted by training count. *)
  functions : (string * skeleton_entry array) array;
}

(* --- scoring features ------------------------------------------------------- *)

let atom_weight atom =
  if Genie_util.Tok.starts_with ~prefix:"@" atom then 2.5
  else if Genie_util.Tok.starts_with ~prefix:"enum:" atom then 0.8
  else if Genie_util.Tok.starts_with ~prefix:"param:" atom then 0.4
  else if Genie_util.Tok.starts_with ~prefix:"unit:" atom then 0.2
  else if List.mem atom [ "monitor"; "now"; "timer"; "attimer"; "edge" ] then 1.2
  else 0.4

(* Only content-bearing atoms can explain a sentence word: structural atoms
   like 'monitor' or 'join' co-occur with everything and would cover any
   word spuriously. *)
let is_content_atom a =
  Genie_util.Tok.starts_with ~prefix:"@" a
  || Genie_util.Tok.starts_with ~prefix:"param:" a
  || Genie_util.Tok.starts_with ~prefix:"enum:" a

(* does the skeleton pass an upstream output into an input parameter? *)
let has_param_passing_tokens tokens =
  let rec go = function
    | "=" :: p :: rest ->
        Genie_util.Tok.starts_with ~prefix:"param:" p || go (p :: rest)
    | _ :: rest -> go rest
    | [] -> false
  in
  go tokens

let is_stream_tokens = function
  | ("monitor" | "edge" | "timer" | "attimer") :: _ -> true
  | _ -> false

let features_of (sk : Skeleton.t) =
  let atoms = Skeleton.atoms sk in
  { skeleton_atoms = Array.of_list atoms;
    weights = Array.of_list (List.map atom_weight atoms);
    content_atoms = Array.of_list (List.filter is_content_atom atoms);
    (* atoms are deduplicated, so token length must carry part of the size
       penalty: otherwise a degenerate self-join chain costs the same as a
       single join *)
    size_penalty =
      (0.11 *. float_of_int (List.length atoms))
      +. (0.012 *. float_of_int (List.length sk.Skeleton.tokens));
    is_stream = is_stream_tokens sk.Skeleton.tokens;
    passing = has_param_passing_tokens sk.Skeleton.tokens }

(* --- training ---------------------------------------------------------------- *)

let create ?(cfg = default_config) lib : t =
  let gazettes = Genie_augment.Gazettes.create ~size:cfg.gazette_size () in
  let gazette_sets = Hashtbl.create 32 in
  List.iter
    (fun (name, arr) ->
      let set = Hashtbl.create (Array.length arr) in
      Array.iter (fun v -> Hashtbl.replace set v ()) arr;
      Hashtbl.replace gazette_sets name set)
    gazettes.Genie_augment.Gazettes.pools;
  (* Decoding breaks score ties in the fold order of [by_function] and the
     clause tables, so those never take a randomized hash seed: predictions
     must not depend on OCAMLRUNPARAM. *)
  { cfg;
    lib;
    inventory = Hashtbl.create 4096;
    by_function = Hashtbl.create ~random:false 512;
    ngram_counts = Genie_util.Counter.create ();
    atom_counts = Genie_util.Counter.create ();
    pair_counts = Genie_util.Counter.create ();
    slot_word_counts = Genie_util.Counter.create ();
    slot_param_counts = Genie_util.Counter.create ();
    slot_value_counts = Genie_util.Counter.create ();
    memo = Hashtbl.create 4096;
    gazettes;
    gazette_sets;
    streams = Hashtbl.create ~random:false 512;
    queries = Hashtbl.create ~random:false 1024;
    actions = Hashtbl.create ~random:false 512;
    trained_examples = 0;
    functions = [||] }

let pair_key atom gram = atom ^ " || " ^ gram

(* Random keyword-parameter order, used when the canonicalization ablation is
   off: the model then sees the same program in many serializations. *)
let shuffle_program rng (p : Ast.program) : Ast.program =
  let shuffle_inv (inv : Ast.invocation) =
    { inv with Ast.in_params = Genie_util.Rng.shuffle rng inv.Ast.in_params }
  in
  let rec q = function
    | Ast.Q_invoke inv -> Ast.Q_invoke (shuffle_inv inv)
    | Ast.Q_filter (inner, pred) -> Ast.Q_filter (q inner, pred)
    | Ast.Q_join (a, b, on) -> Ast.Q_join (q a, q b, on)
    | Ast.Q_aggregate { op; field; inner } -> Ast.Q_aggregate { op; field; inner = q inner }
  in
  let rec s = function
    | (Ast.S_now | Ast.S_attimer _ | Ast.S_timer _) as x -> x
    | Ast.S_monitor (inner, on_new) -> Ast.S_monitor (q inner, on_new)
    | Ast.S_edge (inner, pred) -> Ast.S_edge (s inner, pred)
  in
  { Ast.stream = s p.Ast.stream;
    query = Option.map q p.Ast.query;
    action =
      (match p.Ast.action with
      | Ast.A_notify -> Ast.A_notify
      | Ast.A_invoke inv -> Ast.A_invoke (shuffle_inv inv)) }

let prepare_program t rng (p : Ast.program) =
  if t.cfg.canonicalize then Canonical.normalize t.lib p else shuffle_program rng p

let register_skeleton t (sk : Skeleton.t) ~weight ~lm =
  let k = Skeleton.key sk in
  let entry =
    match Hashtbl.find_opt t.inventory k with
    | Some e -> e
    | None ->
        let e =
          { skeleton = sk;
            key = k;
            id = Hashtbl.length t.inventory;
            features = features_of sk;
            count = 0.0;
            lm_count = 0.0 }
        in
        Hashtbl.replace t.inventory k e;
        List.iter
          (fun fa ->
            let cell =
              match Hashtbl.find_opt t.by_function fa with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.replace t.by_function fa c;
                  c
            in
            cell := k :: !cell)
          (Skeleton.function_atoms sk);
        e
  in
  if lm then entry.lm_count <- entry.lm_count +. weight
  else entry.count <- entry.count +. weight

(* Register the clause fragments of a program for the compositional decoder.
   Clause atoms come from skeletonizing a minimal program around the clause. *)
let clause_atoms t (c : clause) =
  let wrap =
    match c with
    | C_stream st -> { Ast.stream = st; query = None; action = Ast.A_notify }
    | C_query q -> { Ast.stream = Ast.S_now; query = Some q; action = Ast.A_notify }
    | C_action a -> { Ast.stream = Ast.S_now; query = None; action = a }
  in
  let sk = Skeleton.of_program ~options:t.cfg.options t.lib wrap in
  List.filter (fun a -> a <> "now" && a <> "notify") (Skeleton.atoms sk)

let clause_key (c : clause) =
  match c with
  | C_stream st -> "s:" ^ Printer.stream_to_string st
  | C_query q -> "q:" ^ Printer.query_to_string q
  | C_action a -> "a:" ^ Printer.action_to_string a

let register_clause t tbl (c : clause) ~weight ~lm =
  let k = clause_key c in
  let entry =
    match Hashtbl.find_opt tbl k with
    | Some e -> e
    | None ->
        let e = { clause = c; atoms = clause_atoms t c; c_count = 0.0; c_lm = 0.0 } in
        Hashtbl.replace tbl k e;
        e
  in
  if lm then entry.c_lm <- entry.c_lm +. weight else entry.c_count <- entry.c_count +. weight

let register_clauses t (p : Ast.program) ~lm =
  (match p.Ast.stream with
  | Ast.S_now -> ()
  | st -> register_clause t t.streams (C_stream st) ~weight:1.0 ~lm);
  (match p.Ast.query with
  | None -> ()
  | Some q -> register_clause t t.queries (C_query q) ~weight:1.0 ~lm);
  match p.Ast.action with
  | Ast.A_notify -> ()
  | a -> register_clause t t.actions (C_action a) ~weight:1.0 ~lm

let sentence_ngrams tokens = Genie_util.Tok.all_ngrams 3 tokens

let value_words (v : Value.t) =
  Genie_util.Tok.tokenize (Genie_thingpedia.Prim.render_value ~quote:false v)

(* Alignment pairs awaiting [count_pairs]: every sentence n-gram interned to
   an int id, and per skeleton atom (first-seen order, newest first) the id
   arrays of the training sentences whose skeleton contains it. *)
type pending_pairs = {
  gram_ids : (string, int) Hashtbl.t;
  mutable atom_order : (string * int array list ref) list;
  by_atom : (string, int array list ref) Hashtbl.t;
}

let pending_pairs () =
  { gram_ids = Hashtbl.create 16384; atom_order = []; by_atom = Hashtbl.create 1024 }

let gram_id pending g =
  match Hashtbl.find_opt pending.gram_ids g with
  | Some id -> id
  | None ->
      let id = Hashtbl.length pending.gram_ids in
      Hashtbl.replace pending.gram_ids g id;
      id

let defer_pairs pending atom ids =
  match Hashtbl.find_opt pending.by_atom atom with
  | Some cell -> cell := ids :: !cell
  | None ->
      let cell = ref [ ids ] in
      Hashtbl.replace pending.by_atom atom cell;
      pending.atom_order <- (atom, cell) :: pending.atom_order

(* The alignment pair counts: per atom, its sentences' n-gram ids are summed
   into one dense row and each touched cell becomes one "atom || ngram" entry,
   so the table is written once per distinct pair. The counts are integers,
   so it holds exactly the (key, count) multiset that adding 1 per (atom,
   n-gram occurrence) would. *)
let count_pairs pending =
  let n = Hashtbl.length pending.gram_ids in
  let grams = Array.make n "" in
  Hashtbl.iter (fun g id -> grams.(id) <- g) pending.gram_ids;
  let row = Array.make n 0 and touched = Array.make n 0 in
  let each_pair f =
    List.iter
      (fun (atom, sentences) ->
        let k = ref 0 in
        List.iter
          (fun ids ->
            for i = 0 to Array.length ids - 1 do
              let id = ids.(i) in
              if row.(id) = 0 then begin
                touched.(!k) <- id;
                incr k
              end;
              row.(id) <- row.(id) + 1
            done)
          !sentences;
        for i = 0 to !k - 1 do
          let id = touched.(i) in
          f atom id row.(id);
          row.(id) <- 0
        done)
      (List.rev pending.atom_order)
  in
  let distinct = ref 0 in
  each_pair (fun _ _ _ -> incr distinct);
  let pairs = Genie_util.Counter.create ~size:!distinct () in
  each_pair (fun atom id count ->
      Genie_util.Counter.add ~weight:(float_of_int count) pairs (pair_key atom grams.(id)));
  pairs

let train_example t pending rng (e : Genie_dataset.Example.t) =
  let norm =
    Genie_dataset.Argument_id.normalize
      (List.filter (fun tok -> tok <> "\"") e.Genie_dataset.Example.tokens)
  in
  let program = prepare_program t rng e.Genie_dataset.Example.program in
  let sk = Skeleton.of_program ~options:t.cfg.options t.lib program in
  register_skeleton t sk ~weight:1.0 ~lm:false;
  register_clauses t program ~lm:false;
  (* lexical alignment between sentence n-grams and skeleton atoms; the
     pairs themselves are counted by [count_pairs] *)
  let grams = sentence_ngrams norm.Genie_dataset.Argument_id.tokens in
  List.iter (fun g -> Genie_util.Counter.add t.ngram_counts g) grams;
  let ids = Array.of_list (List.map (gram_id pending) grams) in
  List.iter
    (fun a ->
      Genie_util.Counter.add t.atom_counts a;
      defer_pairs pending a ids)
    (Skeleton.atoms sk);
  (* copy statistics: which words fill which parameter *)
  List.iter
    (fun s ->
      match s.Skeleton.exemplar with
      | Value.String _ | Value.Entity _ | Value.Location (Value.L_named _) ->
          let words = value_words s.Skeleton.exemplar in
          List.iter
            (fun w ->
              Genie_util.Counter.add t.slot_word_counts (pair_key s.Skeleton.param w);
              Genie_util.Counter.add t.slot_param_counts s.Skeleton.param)
            words;
          Genie_util.Counter.add t.slot_value_counts
            (pair_key s.Skeleton.param (String.concat " " words))
      | _ -> ())
    sk.Skeleton.slots;
  (* sentence memo *)
  let memo_key = String.concat " " norm.Genie_dataset.Argument_id.tokens in
  let cell =
    match Hashtbl.find_opt t.memo memo_key with
    | Some c -> c
    | None ->
        let c = Genie_util.Counter.create () in
        Hashtbl.replace t.memo memo_key c;
        c
  in
  Genie_util.Counter.add cell (Skeleton.key sk);
  t.trained_examples <- t.trained_examples + 1

let pretrain_lm t =
  if t.cfg.use_decoder_lm then
    List.iter
      (fun p ->
        let p = if t.cfg.canonicalize then Canonical.normalize t.lib p else p in
        let sk = Skeleton.of_program ~options:t.cfg.options t.lib p in
        register_skeleton t sk ~weight:1.0 ~lm:true;
        register_clauses t p ~lm:true)
      t.cfg.lm_programs

(* The decode-time tables that depend on the trained model alone. *)
let derive t =
  (* skeletons by training count, keeping registration order (newest first)
     among equal counts *)
  let by_count keys =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare b.count a.count)
         (List.map (Hashtbl.find t.inventory) keys))
  in
  let functions =
    Hashtbl.fold (fun fa keys acc -> (fa, by_count !keys) :: acc) t.by_function []
  in
  { t with functions = Array.of_list functions }

let train ?(cfg = default_config) lib (examples : Genie_dataset.Example.t list) : t =
  let t = create ~cfg lib in
  let rng = Genie_util.Rng.create cfg.seed in
  let pending = pending_pairs () in
  pretrain_lm t;
  List.iter (fun e -> train_example t pending rng e) examples;
  derive { t with pair_counts = count_pairs pending }

(* --- scoring ------------------------------------------------------------------ *)

(* Conditional association: how strongly does sentence n-gram [gram] predict
   program atom [atom]? Estimated as the shrunk fraction of training examples
   containing [gram] whose program contains [atom]. Bounded in (0, 1], so
   adding weakly-supported atoms to a skeleton always costs score -- large
   spurious programs cannot win by accumulating many small matches. *)
let cond_score t atom gram =
  let pair = Genie_util.Counter.count t.pair_counts (pair_key atom gram) in
  let g = Genie_util.Counter.count t.ngram_counts gram in
  if g <= 0.0 then 0.0
  else
    let n = float_of_int (max 1 t.trained_examples) in
    let p_atom = Genie_util.Counter.count t.atom_counts atom /. n in
    let kappa = 2.0 in
    (pair +. (kappa *. p_atom)) /. (g +. kappa)

(* Best support for [atom] from any n-gram of the sentence. *)
let best_match t grams atom =
  List.fold_left (fun acc g -> Float.max acc (cond_score t atom g)) 0.0 grams

(* Per-sentence cache: the atom vocabulary is shared by thousands of candidate
   skeletons, so each atom's best match is computed once per sentence. *)
let cached_best_match t cache grams atom =
  match Hashtbl.find_opt cache atom with
  | Some s -> s
  | None ->
      let s = best_match t grams atom in
      Hashtbl.replace cache atom s;
      s

(* The best explanation any known content atom gives for a word. *)
let best_explainer t w =
  let best = ref 1e-4 in
  Genie_util.Counter.iter
    (fun a _ ->
      if is_content_atom a then begin
        let s = cond_score t a w in
        if s > !best then best := s
      end)
    t.atom_counts;
  !best

let skeleton_prior t entry =
  let train_total = float_of_int (max 1 t.trained_examples) in
  (* LM-pretraining counts stand in for training counts at a discount: the
     pretrained decoder LM is what makes unseen programs reachable
     (section 4.2) *)
  let lm_weight = 0.5 in
  let c = entry.count +. (lm_weight *. Float.min entry.lm_count 10.0) in
  log ((c +. 0.1) /. (train_total +. 1000.0))

let scoring_stopwords =
  [ "the"; "a"; "an"; "my"; "me"; "i"; "to"; "of"; "in"; "on"; "at"; "and"; "or";
    "is"; "are"; "it"; "that"; "this"; "for"; "with"; "please"; "s"; "me"; ","; "\"" ]

let content_tokens tokens =
  List.filter
    (fun w ->
      (not (List.mem w scoring_stopwords))
      && not (Genie_util.Tok.starts_with ~prefix:"NUMBER_" w
             || Genie_util.Tok.starts_with ~prefix:"DATE_" w
             || Genie_util.Tok.starts_with ~prefix:"TIME_" w))
    tokens

(* a when-word in the sentence indicates a stream program and vice versa:
   a reliable surface cue the neural model also learns *)
let when_words =
  [ "when"; "whenever"; "if"; "once"; "anytime"; "every"; "each"; "daily"; "moment";
    "soon" ]

(* a pronoun suggests parameter passing ("post it", "add it to my list") *)
let pronouns = [ "it"; "that"; "them"; "this" ]

(* What scoring needs from a sentence besides its n-grams' atom support,
   computed once per sentence: its content words (in sentence order,
   repeats included) with their IDF weights (words common across the
   training data carry little signal) and their best explanation by any
   content atom; the when-word and pronoun cues; and a memo, per atom that
   candidates ask about, of its [cond_score] against each content word. *)
type sentence = {
  grams : string list;
  words : string array;
  idf : float array;
  explained : float array;
  has_when : bool;
  has_pronoun : bool;
  atom_rows : (string, float array) Hashtbl.t;
}

let sentence_of t grams content =
  let words = Array.of_list content in
  let n = float_of_int (max 1 t.trained_examples) in
  (* the stopword filter removes when-words from the content words; test the
     raw unigrams instead *)
  let mentions ws = List.exists (fun w -> List.mem w grams) ws in
  { grams;
    words;
    idf =
      Array.map
        (fun w ->
          Float.max 0.0 (1.0 -. (3.0 *. Genie_util.Counter.count t.ngram_counts w /. n)))
        words;
    explained = Array.map (best_explainer t) words;
    has_when = mentions when_words;
    has_pronoun = mentions pronouns;
    atom_rows = Hashtbl.create 512 }

let atom_row t (s : sentence) atom =
  match Hashtbl.find_opt s.atom_rows atom with
  | Some row -> row
  | None ->
      let row = Array.map (cond_score t atom) s.words in
      Hashtbl.replace s.atom_rows atom row;
      row

(* score = sum over atoms of log-support + coverage of the sentence's content
   words by the skeleton's atoms + a prior from training/LM counts + surface
   cues *)
let score_skeleton t cache (s : sentence) entry =
  let f = entry.features in
  let support = ref 0.0 in
  for j = 0 to Array.length f.skeleton_atoms - 1 do
    let b = Float.max 1e-4 (cached_best_match t cache s.grams f.skeleton_atoms.(j)) in
    support := !support +. (f.weights.(j) *. Float.max (-4.0) (log b))
  done;
  (* coverage with explaining-away: a word is well covered only if one of the
     skeleton's atoms explains it about as well as the best atom anywhere in
     the vocabulary does *)
  let rows = Array.map (atom_row t s) f.content_atoms in
  let coverage = ref 0.0 in
  for i = 0 to Array.length s.words - 1 do
    let c = Array.fold_left (fun m row -> Float.max m row.(i)) 1e-4 rows in
    let best = Float.max c s.explained.(i) in
    coverage := !coverage +. (0.6 *. s.idf.(i) *. Float.max (-2.5) (log (c /. best)))
  done;
  let stream_bonus = if f.is_stream = s.has_when then 0.6 else -1.2 in
  let passing_bonus =
    match (s.has_pronoun, f.passing) with
    | true, true -> 1.0
    | false, true -> -0.4
    | _ -> 0.0
  in
  !support +. !coverage -. f.size_penalty +. stream_bonus +. passing_bonus
  +. (0.3 *. skeleton_prior t entry)

(* --- slot filling -------------------------------------------------------------- *)

let unit_words =
  (* lowercase word -> unit name *)
  List.concat_map
    (fun (u, _) -> [ (String.lowercase_ascii u, u) ])
    Ttype.Units.table
  @ [ ("minutes", "min"); ("minute", "min"); ("hours", "h"); ("hour", "h");
      ("days", "day"); ("seconds", "s"); ("degrees", "C"); ("fahrenheit", "F");
      ("celsius", "C"); ("kilometers", "km"); ("miles", "mi"); ("pounds", "lb");
      ("kilograms", "kg"); ("feet", "ft"); ("inches", "in"); ("megabytes", "MB");
      ("gigabytes", "GB"); ("kilobytes", "KB") ]

let gazette_member t pool v =
  match Hashtbl.find_opt t.gazette_sets pool with
  | Some set -> Hashtbl.mem set v
  | None -> false

let is_sentence_slot tok =
  Genie_util.Tok.starts_with ~prefix:"NUMBER_" tok
  || Genie_util.Tok.starts_with ~prefix:"DATE_" tok
  || Genie_util.Tok.starts_with ~prefix:"TIME_" tok

let stopwords =
  [ "the"; "a"; "an"; "my"; "me"; "i"; "to"; "of"; "in"; "on"; "at"; "and"; "or";
    "when"; "if"; "with"; "for"; "is"; "are"; "it"; "that"; "this"; "get"; "show";
    "tell"; "please"; "from"; "by"; "new"; "every" ]

(* Words that typically introduce a parameter value. *)
let anchor_words =
  [ "caption"; "saying"; "titled"; "named"; "called"; "subject"; "message";
    "status"; "about"; "to"; "for"; "play"; "text"; "tweet"; "post"; "say";
    "add"; "search"; "matching"; "containing" ]

(* Score a candidate span for a string-like slot. [cue] measures how much a
   word is already explained by the program's structure (function names,
   filters): such words are command vocabulary, not parameter values, and a
   copy mechanism should not copy them. [before] is the token preceding the
   span, used as a lexical anchor. *)
let span_score t ~param ~pool_opt ~cue ~before ~after (span : string list) =
  let joined = String.concat " " span in
  let len = float_of_int (List.length span) in
  (* discriminative copy evidence: how much more likely is this word inside a
     value of [param] than as an ordinary sentence word? *)
  let word_score =
    let total = Genie_util.Counter.count t.slot_param_counts param +. 100.0 in
    let bg_total = Genie_util.Counter.total t.ngram_counts +. 100.0 in
    List.fold_left
      (fun acc w ->
        let c = Genie_util.Counter.count t.slot_word_counts (pair_key param w) in
        let bg = Genie_util.Counter.count t.ngram_counts w in
        let lr =
          log ((c +. 0.05) /. total) -. log ((bg +. 0.5) /. bg_total)
        in
        acc +. Float.max (-2.0) (Float.min 3.0 lr))
      0.0 span
    /. len
  in
  let stripped =
    if String.length joined > 1 && (joined.[0] = '#' || joined.[0] = '@') then
      String.sub joined 1 (String.length joined - 1)
    else joined
  in
  (* the model only "knows" a value pool to the extent training exposed it to
     varied values of this parameter -- which is precisely what parameter
     expansion provides (section 3.3); without that exposure the gazette
     carries no weight *)
  let exposure =
    Float.min 1.0 (Genie_util.Counter.count t.slot_param_counts param /. 15.0)
  in
  let gazette_bonus =
    match pool_opt with
    | Some pool when gazette_member t pool joined || gazette_member t pool stripped ->
        3.0 *. exposure
    | _ -> 0.0
  in
  (* a span introduced by the parameter's own name ("caption funny cat") is
     almost certainly the value: boost it and let context override the cue
     penalty *)
  let param_anchored = before = Some param in
  let cue_penalty =
    if param_anchored then 0.0
    else -2.0 *. (List.fold_left (fun acc w -> acc +. cue w) 0.0 span /. len)
  in
  let anchor_bonus =
    if param_anchored then 3.0
    else
      match before with
      | Some w when List.mem w anchor_words -> 0.8
      | _ -> 0.0
  in
  let stop_penalty =
    if List.for_all (fun w -> List.mem w stopwords || List.mem w anchor_words) span then
      -5.0
    else if List.mem (List.hd span) stopwords then -1.0
    else 0.0
  in
  (* an exact value string seen in training is strong copy evidence *)
  let value_bonus =
    if Genie_util.Counter.count t.slot_value_counts (pair_key param joined) > 0.0 then 1.5
    else 0.0
  in
  (* cutting a value short: the next token still looks like part of it *)
  let continuation_penalty =
    match after with
    | Some w
      when Genie_util.Counter.count t.slot_word_counts (pair_key param w) > 0.0
           && not (List.mem w stopwords) -> -1.2
    | _ -> 0.0
  in
  let length_bonus = Float.min 0.45 (0.15 *. (len -. 1.0)) in
  word_score +. gazette_bonus +. cue_penalty +. anchor_bonus +. stop_penalty
  +. value_bonus +. continuation_penalty +. length_bonus

let candidate_spans tokens =
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let spans = ref [] in
  for i = 0 to n - 1 do
    for len = 1 to min 8 (n - i) do
      let span = Array.to_list (Array.sub arr i len) in
      if
        List.for_all
          (fun w -> (not (is_sentence_slot w)) && w <> "," && w <> "\"")
          span
      then spans := (i, span) :: !spans
    done
  done;
  !spans

let param_type t ~param ~(exemplar : Value.t) : Ttype.t =
  match Value.type_of exemplar with
  | Some ty -> ty
  | None -> (
      (* fall back to any declaration of that parameter name *)
      let found =
        List.find_map
          (fun f ->
            Option.map (fun p -> p.Schema.p_type) (Schema.find_param f param))
          (Schema.Library.functions t.lib)
      in
      Option.value found ~default:Ttype.String)

(* Fill the slots of a skeleton from the normalized sentence. Returns the
   value assignment and a fill score. *)
let fill_slots t (sk : Skeleton.t) (norm : Genie_dataset.Argument_id.result) :
    (string * Value.t) list * float =
  let tokens = norm.Genie_dataset.Argument_id.tokens in
  let tokens_arr = Array.of_list tokens in
  let content_atoms = List.filter is_content_atom (Skeleton.atoms sk) in
  let cue_cache = Hashtbl.create 32 in
  let cue w =
    match Hashtbl.find_opt cue_cache w with
    | Some c -> c
    | None ->
        let c =
          List.fold_left (fun m a -> Float.max m (cond_score t a w)) 0.0 content_atoms
        in
        Hashtbl.replace cue_cache w c;
        c
  in
  let sentence_numbers =
    List.filter (fun (s, _) -> Genie_util.Tok.starts_with ~prefix:"NUMBER_" s)
      norm.Genie_dataset.Argument_id.entities
  in
  let sentence_dates =
    List.filter (fun (s, _) -> Genie_util.Tok.starts_with ~prefix:"DATE_" s)
      norm.Genie_dataset.Argument_id.entities
  in
  let sentence_times =
    List.filter (fun (s, _) -> Genie_util.Tok.starts_with ~prefix:"TIME_" s)
      norm.Genie_dataset.Argument_id.entities
  in
  let num_idx = ref 0 and date_idx = ref 0 and time_idx = ref 0 in
  let take lst idx =
    let v = List.nth_opt lst !idx in
    incr idx;
    v
  in
  let unit_after_number slot_name =
    (* the token following NUMBER_k in the sentence, if it is a unit word *)
    let rec find = function
      | [] | [ _ ] -> None
      | a :: (b :: _ as rest) ->
          if a = slot_name then List.assoc_opt b unit_words else find rest
    in
    find tokens
  in
  let used_spans = ref [] in
  let overlaps (i, span) =
    List.exists
      (fun (j, sp) ->
        let len1 = List.length span and len2 = List.length sp in
        i < j + len2 && j < i + len1)
      !used_spans
  in
  let score = ref 0.0 in
  let fill_string_like slot pool_opt (mk : string -> Value.t) =
    let cands = List.filter (fun c -> not (overlaps c)) (candidate_spans tokens) in
    let scored =
      List.map
        (fun (i, span) ->
          let before = if i > 0 then Some tokens_arr.(i - 1) else None in
          let j = i + List.length span in
          let after = if j < Array.length tokens_arr then Some tokens_arr.(j) else None in
          ((i, span), span_score t ~param:slot.Skeleton.param ~pool_opt ~cue ~before ~after span))
        cands
    in
    match List.sort (fun (_, a) (_, b) -> compare b a) scored with
    | (((_, span) as chosen), s) :: _ when s > -3.0 ->
        used_spans := chosen :: !used_spans;
        (* a confident span should not be able to buy a spurious filter: cap
           the positive contribution *)
        score := !score +. Float.min s 1.5;
        mk (String.concat " " span)
    | _ ->
        (* no plausible span for this copied value: the sentence does not
           support the slot, which strongly suggests the skeleton is wrong *)
        score := !score -. 6.0;
        slot.Skeleton.exemplar
  in
  let values =
    List.map
      (fun (slot : Skeleton.slot) ->
        let v =
          match slot.Skeleton.exemplar with
          | Value.Number _ -> (
              match take sentence_numbers num_idx with
              | Some (_, v) -> v
              | None ->
                  (* no number in the sentence supports this slot *)
                  score := !score -. 6.0;
                  slot.Skeleton.exemplar)
          | Value.Measure ((_, default_unit) :: _) -> (
              match take sentence_numbers num_idx with
              | Some (slot_name, Value.Number n) ->
                  let unit =
                    match unit_after_number slot_name with
                    | Some u
                      when Ttype.Units.base_of u
                           = Ttype.Units.base_of default_unit -> u
                    | _ -> default_unit
                  in
                  Value.Measure [ (n, unit) ]
              | _ ->
                  score := !score -. 6.0;
                  slot.Skeleton.exemplar)
          | Value.Currency (_, code) -> (
              match take sentence_numbers num_idx with
              | Some (_, Value.Number n) -> Value.Currency (n, code)
              | _ -> slot.Skeleton.exemplar)
          | Value.Date _ -> (
              match take sentence_dates date_idx with
              | Some (_, v) -> v
              | None ->
                  score := !score -. 4.0;
                  slot.Skeleton.exemplar)
          | Value.Time _ -> (
              match take sentence_times time_idx with
              | Some (_, v) -> v
              | None ->
                  score := !score -. 4.0;
                  slot.Skeleton.exemplar)
          | Value.String _ ->
              let ty = param_type t ~param:slot.Skeleton.param ~exemplar:slot.Skeleton.exemplar in
              let pool =
                Genie_augment.Gazettes.gazette_for ~param_name:slot.Skeleton.param ~ty
              in
              fill_string_like slot pool (fun s -> Value.String s)
          | Value.Entity { ty = ety; display; _ } ->
              let pool =
                Genie_augment.Gazettes.gazette_for ~param_name:slot.Skeleton.param
                  ~ty:(Ttype.Entity ety)
              in
              let strip s =
                if String.length s > 1 && (s.[0] = '#' || s.[0] = '@') then
                  String.sub s 1 (String.length s - 1)
                else s
              in
              fill_string_like slot pool (fun s ->
                  Value.Entity { ty = ety; value = strip s; display })
          | Value.Location (Value.L_named _) ->
              if List.mem "here" tokens then Value.Location (Value.L_relative "current_location")
              else if List.mem "home" tokens then Value.Location (Value.L_relative "home")
              else if List.mem "work" tokens then Value.Location (Value.L_relative "work")
              else fill_string_like slot (Some "city") (fun s -> Value.Location (Value.L_named s))
          | v -> v
        in
        (slot.Skeleton.marker, v))
      sk.Skeleton.slots
  in
  (values, !score)

(* --- decoding ------------------------------------------------------------------ *)

type prediction = {
  program : Ast.program option;
  nn_tokens : string list; (* the decoded token sequence *)
  score : float;
}

let no_prediction = { program = None; nn_tokens = []; score = neg_infinity }

(* The first [k] elements of [List.stable_sort] by descending score, without
   sorting the rest: a later element displaces a kept one only by scoring
   strictly higher, so ties keep list order. *)
let top_k k (xs : (float * 'a) list) =
  let k = min k (List.length xs) in
  match xs with
  | x0 :: _ when k > 0 ->
      let buf = Array.make k x0 in
      let n = ref 0 in
      List.iter
        (fun ((s, _) as x) ->
          if !n < k || Float.compare s (fst buf.(k - 1)) > 0 then begin
            let i = ref (min !n (k - 1)) in
            while !i > 0 && Float.compare (fst buf.(!i - 1)) s < 0 do
              buf.(!i) <- buf.(!i - 1);
              decr i
            done;
            buf.(!i) <- x;
            if !n < k then incr n
          end)
        xs;
      Array.to_list (Array.sub buf 0 !n)
  | _ -> []

(* Candidate skeletons via the inverted function-atom index. Functions are
   ranked by sentence support and their skeletons by training count, then
   interleaved round-robin up to the cap -- a global cut-off would silently
   drop every skeleton of lower-ranked functions, including the right one. *)
let candidate_entries t cache grams =
  let ranked =
    List.stable_sort
      (fun (a, _) (b, _) -> compare b a)
      (Array.fold_right
         (fun (fa, entries) acc ->
           let s = cached_best_match t cache grams fa in
           if s > 0.0 then (s, entries) :: acc else acc)
         t.functions [])
  in
  let arrays = List.map snd ranked in
  let seen = Bytes.make (Hashtbl.length t.inventory) '\000' in
  let out = ref [] in
  let n = ref 0 in
  let level = ref 0 in
  let progress = ref true in
  while !progress && !n < t.cfg.max_candidates do
    progress := false;
    List.iter
      (fun arr ->
        if !level < Array.length arr && !n < t.cfg.max_candidates then begin
          progress := true;
          let e = arr.(!level) in
          if Bytes.get seen e.id = '\000' then begin
            Bytes.set seen e.id '\001';
            out := e :: !out;
            incr n
          end
        end)
      arrays;
    incr level
  done;
  !out

let candidate_keys t cache grams = List.map (fun e -> e.key) (candidate_entries t cache grams)

(* Select an output parameter able to fill a hole of the given type. *)
let pick_out_for_hole ~outs ~hole_ip ~hole_ty =
  match List.assoc_opt hole_ip outs with
  | Some ty when Ttype.strictly_assignable ~src:ty ~dst:hole_ty -> Some hole_ip
  | _ -> (
      match
        List.filter (fun (_, ty) -> Ttype.strictly_assignable ~src:ty ~dst:hole_ty) outs
      with
      | [] -> None
      | (n, _) :: _ -> Some n)

let fill_hole_passed_inv (inv : Ast.invocation) ~hole_ip ~out_name =
  { inv with
    Ast.in_params =
      List.map
        (fun ip ->
          if ip.Ast.ip_name = hole_ip then { ip with Ast.ip_value = Ast.Passed out_name }
          else ip)
        inv.Ast.in_params }

(* --- compositional candidates ------------------------------------------------

   The inventory only contains whole programs seen in training or LM
   pretraining. The neural decoder, however, generates token-by-token and can
   produce *new combinations* of clauses it has seen; synthesized data is what
   teaches it that type-based compositionality (section 3.4). The equivalent
   here: rank the learned stream / query / action fragments against the
   sentence, recombine the best ones into full programs, and type-check the
   combinations. *)

let clause_score t cache grams (e : clause_entry) =
  let support =
    List.fold_left
      (fun acc a ->
        let s = Float.max 1e-4 (cached_best_match t cache grams a) in
        acc +. (atom_weight a *. Float.max (-4.0) (log s)))
      0.0 e.atoms
  in
  let n = float_of_int (max 1 (List.length e.atoms)) in
  support /. n

let top_clauses t cache grams tbl k =
  Hashtbl.fold (fun _ e acc -> (clause_score t cache grams e, e) :: acc) tbl []
  |> top_k k |> List.map snd

let compose_candidates t cache grams : skeleton_entry list =
  let k = 5 in
  let streams = top_clauses t cache grams t.streams k in
  let queries = top_clauses t cache grams t.queries k in
  let actions = top_clauses t cache grams t.actions k in
  let stream_opts = None :: List.map (fun e -> Some e) streams in
  let query_opts = None :: List.map (fun e -> Some e) queries in
  let action_opts = None :: List.map (fun e -> Some e) actions in
  let out = ref [] in
  List.iter
    (fun s_opt ->
      List.iter
        (fun q_opt ->
          List.iter
            (fun a_opt ->
              if not (s_opt = None && q_opt = None && a_opt = None) then begin
                let stream =
                  match s_opt with
                  | Some { clause = C_stream st; _ } -> st
                  | _ -> Ast.S_now
                in
                let query =
                  match q_opt with
                  | Some { clause = C_query q; _ } -> Some q
                  | _ -> None
                in
                let action =
                  match a_opt with
                  | Some { clause = C_action a; _ } -> a
                  | _ -> Ast.A_notify
                in
                (* a bare 'now => notify' or stream-less action-less combo is
                   not a meaningful program *)
                (* skip compositions where the query repeats a function the
                   stream already monitors: they add no information *)
                let duplicated =
                  match (stream, query) with
                  | Ast.S_monitor (mq, _), Some q ->
                      let fns qq =
                        List.map Ast.Fn.to_string
                          (List.map (fun (i : Ast.invocation) -> i.Ast.fn) (Ast.query_invocations qq))
                      in
                      List.exists (fun f -> List.mem f (fns mq)) (fns q)
                  | _ -> false
                in
                if ((not (stream = Ast.S_now && query = None)) || action <> Ast.A_notify)
                   && not duplicated
                then begin
                  let counts =
                    List.filter_map
                      (fun o -> Option.map (fun e -> e.c_count +. (0.2 *. e.c_lm)) o)
                      [ s_opt; q_opt; a_opt ]
                  in
                  let min_count = List.fold_left Float.min infinity (1.0 :: counts) in
                  let emit program =
                    if Result.is_ok (Typecheck.check_program t.lib program) then begin
                      let program = Canonical.normalize t.lib program in
                      let sk = Skeleton.of_program ~options:t.cfg.options t.lib program in
                      let key = Skeleton.key sk in
                      if not (Hashtbl.mem t.inventory key) then
                        (* composed programs inherit a discounted prior *)
                        out := (sk, key, 0.3 *. min_count) :: !out
                    end
                  in
                  emit { Ast.stream; query; action };
                  (* parameter-passing variants: feed an upstream output into
                     a constant input parameter of the action (the 'use that
                     as' compositions of section 2.3) *)
                  let outs =
                    match query with
                    | Some q -> Typecheck.query_out_params t.lib q
                    | None -> Typecheck.stream_out_params t.lib stream
                  in
                  (match action with
                  | Ast.A_invoke inv when outs <> [] ->
                      List.iter
                        (fun (ip : Ast.in_param) ->
                          match ip.Ast.ip_value with
                          | Ast.Constant v -> (
                              match Value.type_of v with
                              | Some ty -> (
                                  match
                                    pick_out_for_hole ~outs ~hole_ip:ip.Ast.ip_name ~hole_ty:ty
                                  with
                                  | Some out_name ->
                                      let inv' =
                                        fill_hole_passed_inv inv ~hole_ip:ip.Ast.ip_name
                                          ~out_name
                                      in
                                      emit { Ast.stream; query; action = Ast.A_invoke inv' }
                                  | None -> ())
                              | None -> ())
                          | Ast.Passed _ -> ())
                        inv.Ast.in_params
                  | _ -> ())
                end
              end)
            action_opts)
        query_opts)
    stream_opts;
  (* deduplicate composed candidates, keeping the highest prior; the fold
     order breaks score ties, so the table is never randomized *)
  let best = Hashtbl.create ~random:false 64 in
  List.iter
    (fun ((_, key, count) as c) ->
      match Hashtbl.find_opt best key with
      | Some (_, _, count') when count' >= count -> ()
      | _ -> Hashtbl.replace best key c)
    !out;
  Hashtbl.fold
    (fun _ (sk, key, count) acc ->
      { skeleton = sk; key; id = -1; features = features_of sk; count; lm_count = 0.0 }
      :: acc)
    best []

(* The decode loop reports three phases to an optional tracing scope:
   candidate ranking, beam truncation, and slot filling. With no scope the
   clock is never read and the only cost is a match on [None]. Every
   per-sentence table is local to the call; the model is only read. *)
let predict ?scope t (sentence_tokens : string list) : prediction =
  let module Tracer = Genie_observe.Tracer in
  let now () = match scope with Some _ -> Tracer.now_ns () | None -> 0.0 in
  let d0 = now () in
  let norm =
    Genie_dataset.Argument_id.normalize
      (List.filter (fun tok -> tok <> "\"") sentence_tokens)
  in
  let grams = sentence_ngrams norm.Genie_dataset.Argument_id.tokens in
  let memo_boost =
    match Hashtbl.find_opt t.memo (String.concat " " norm.Genie_dataset.Argument_id.tokens) with
    | Some c -> (
        match Genie_util.Counter.top 1 c with
        | [ (k, _) ] -> Some k
        | _ -> None)
    | None -> None
  in
  let cache = Hashtbl.create 512 in
  let sentence = sentence_of t grams (content_tokens norm.Genie_dataset.Argument_id.tokens) in
  let inventory_scored =
    List.map
      (fun entry ->
        let s = score_skeleton t cache sentence entry in
        ((if memo_boost = Some entry.key then s +. 10.0 else s), entry))
      (candidate_entries t cache grams)
  in
  let composed_scored =
    List.map
      (fun entry -> (score_skeleton t cache sentence entry, entry))
      (compose_candidates t cache grams)
  in
  let scored = inventory_scored @ composed_scored in
  let d1 = now () in
  let top = top_k t.cfg.beam scored in
  let d2 = now () in
  let completed =
    List.filter_map
      (fun (s, entry) ->
        let values, fill_score = fill_slots t entry.skeleton norm in
        match Skeleton.fill ~options:t.cfg.options t.lib entry.skeleton values with
        | Some program ->
            let p =
              { program = Some program;
                nn_tokens = Nn_syntax.to_tokens ~options:t.cfg.options t.lib program;
                score = s +. (0.5 *. fill_score) }
            in
            Some (p.score, p)
        | None -> None)
      top
  in
  let best =
    match top_k 1 completed with
    | [ (_, best) ] -> best
    | _ -> no_prediction
  in
  (match scope with
  | Some sc ->
      let d3 = Tracer.now_ns () in
      Tracer.sub sc ~seq:10
        ~attrs:[ ("scored", string_of_int (List.length scored)) ]
        ~start_ns:d0 ~dur_ns:(d1 -. d0) "decode.rank";
      Tracer.sub sc ~seq:11
        ~attrs:[ ("kept", string_of_int (List.length top)) ]
        ~start_ns:d1 ~dur_ns:(d2 -. d1) "decode.beam";
      Tracer.sub sc ~seq:12
        ~attrs:[ ("completed", string_of_int (List.length completed)) ]
        ~start_ns:d2 ~dur_ns:(d3 -. d2) "decode.slots"
  | None -> ());
  best

let predict_batch t (batch : string list list) : prediction list = List.map (predict t) batch

(* accessor used by the beam field *)
let cfg t = t.cfg

(* --- model identity ----------------------------------------------------------- *)

(* 16-hex digest over the statistical tables a prediction can depend on:
   inventory priors, clause fragments, alignment and copy counters, and the
   decoding-relevant config. Each table entry is hashed on its own (key,
   values, and a clause's atoms) and a table contributes its size and the
   sum of its entry hashes mod 2^64, so the digest is independent of
   hash-table iteration order (OCAMLRUNPARAM=R safe) and of how the model
   was built, shared or copied, without sorting anything. Left out: the
   sentence memo, and the indexes derived from the counted tables
   ([by_function], [functions], each skeleton's [features]). Equal digests
   mean the models answer every sentence identically -- the serve layer's
   hot-swap uses this as the parse-cache invalidation key and the
   active-model identity in stats. *)
let digest (t : t) =
  let module H = Genie_util.Hash64 in
  let h = ref (H.string 0L "genie.aligner") in
  let add_i i = h := H.int !h i in
  let num h f = H.combine h (Int64.bits_of_float f) in
  let entry k = H.string 0L k in
  let table tag iter =
    let sum = ref 0L and n = ref 0 in
    iter (fun eh ->
        sum := Int64.add !sum eh;
        incr n);
    h := H.combine (H.int (H.string !h tag) !n) !sum
  in
  add_i t.trained_examples;
  add_i t.cfg.seed;
  add_i t.cfg.beam;
  add_i t.cfg.max_candidates;
  add_i t.cfg.gazette_size;
  table "inventory" (fun add ->
      Hashtbl.iter (fun k e -> add (num (num (entry k) e.count) e.lm_count)) t.inventory);
  let clause_table tag tbl =
    table tag (fun add ->
        Hashtbl.iter
          (fun k e ->
            add (num (num (List.fold_left H.string (entry k) e.atoms) e.c_count) e.c_lm))
          tbl)
  in
  clause_table "streams" t.streams;
  clause_table "queries" t.queries;
  clause_table "actions" t.actions;
  let counter tag c =
    table tag (fun add -> Genie_util.Counter.iter (fun k v -> add (num (entry k) v)) c)
  in
  counter "ngram" t.ngram_counts;
  counter "atom" t.atom_counts;
  counter "pair" t.pair_counts;
  counter "slot_word" t.slot_word_counts;
  counter "slot_param" t.slot_param_counts;
  counter "slot_value" t.slot_value_counts;
  H.to_hex !h
