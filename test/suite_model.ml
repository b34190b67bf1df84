(* Tests for the first-class [Model] interface (docs/serving-network.md):

   - aligner-behind-interface: [Model.of_aligner] answers byte-identically
     to calling the aligner directly, and fork preserves identity;
   - the seq2seq predict path: QCheck batch-1 replay and batched-vs-looped
     decode identity (tokens and score bits), mirroring
     suite_train_parallel's training-side checks;
   - seq2seq end-to-end serving: response digests invariant across
     0/1/2/4 workers and under a seeded fault schedule; checkpoint-backed
     differential hot-swap never yields a mixed-model batch;
   - the daemon's checkpoint-backed reload over loopback, fail-closed on a
     corrupt file;
   - checkpoint weights-only restore, model_kind, and keep-last-K
     rotation pruning order. *)

open Genie_thingtalk
open Genie_serve
open Genie_nn
open Genie_checkpoint
module Model = Genie_parser_model.Model
module Aligner = Genie_parser_model.Aligner
module Fault = Genie_conc.Fault

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

let mini_dataset names =
  let mk sentence src =
    Genie_dataset.Example.make ~id:0 ~tokens:(Genie_util.Tok.tokenize sentence)
      ~program:(parse src) ~source:Genie_dataset.Example.Synthesized ()
  in
  List.concat
    (List.map
       (fun name ->
         [ mk
             (Printf.sprintf "tweet %s" name)
             (Printf.sprintf "now => @com.twitter.post(status = \"%s\");" name);
           mk
             (Printf.sprintf "show me emails from %s" name)
             (Printf.sprintf
                "now => (@com.gmail.inbox()) filter sender_name == \"%s\" => notify;"
                name);
           mk "get a cat picture" "now => @com.thecatapi.get() => notify;";
           mk "when i receive an email , get a cat picture"
             "monitor (@com.gmail.inbox()) => @com.thecatapi.get() => notify;" ])
       names)

let aligner =
  lazy (Aligner.train lib (mini_dataset [ "alice"; "bob"; "carol"; "dan" ]))

let utterances =
  [ "tweet alice"; "tweet bob"; "show me emails from carol";
    "get a cat picture"; "when i receive an email , get a cat picture";
    "tweet dan"; "show me emails from alice" ]

let token_lists = List.map Genie_util.Tok.tokenize utterances

let pred_essence (p : Model.prediction) =
  Printf.sprintf "%s | %s | %Lx"
    (match p.Model.program with
    | Some prog -> Printer.program_to_string prog
    | None -> "-")
    (String.concat " " p.Model.nn_tokens)
    (Int64.bits_of_float p.Model.score)

(* --- the aligner behind the interface ----------------------------------------------- *)

let test_aligner_behind_interface () =
  let al = Lazy.force aligner in
  let m = Model.of_aligner al in
  Alcotest.(check string) "kind" "aligner" (Model.kind_to_string m.Model.kind);
  Alcotest.(check string) "digest is the aligner's" (Aligner.digest al)
    m.Model.digest;
  List.iter
    (fun toks ->
      Alcotest.(check string)
        (String.concat " " toks)
        (pred_essence (Aligner.predict al toks))
        (pred_essence (m.Model.predict toks)))
    token_lists;
  (* fork: same identity, same answers, private scratch *)
  let f = m.Model.fork () in
  Alcotest.(check string) "fork digest" m.Model.digest f.Model.digest;
  Alcotest.(check string) "fork kind" "aligner"
    (Model.kind_to_string f.Model.kind);
  List.iter
    (fun toks ->
      Alcotest.(check string) "fork answers identically"
        (pred_essence (m.Model.predict toks))
        (pred_essence (f.Model.predict toks)))
    token_lists

(* --- a tiny seq2seq (toy vocab, mirrors suite_train_parallel) ----------------------- *)

let toy_pairs =
  [ ([ "a"; "b" ], [ "x"; "y" ]);
    ([ "b"; "a" ], [ "y"; "x" ]);
    ([ "c"; "b"; "a" ], [ "z"; "x" ]);
    ([ "a" ], [ "x" ]);
    ([ "c" ], [ "z" ]);
    ([ "b"; "c"; "a" ], [ "y"; "z"; "x" ]) ]

let toy_model ?(seed = 11) ?(epochs = 2) () =
  let src_vocab = Vocab.of_tokens (List.concat_map fst toy_pairs) in
  let tgt_vocab = Vocab.of_tokens (List.concat_map snd toy_pairs) in
  let m =
    Seq2seq.create
      ~cfg:{ Seq2seq.embed_dim = 6; hidden_dim = 8; dropout = 0.1; seed }
      ~src_vocab ~tgt_vocab ()
  in
  if epochs > 0 then Seq2seq.train ~epochs ~batch:2 ~micro:1 m toy_pairs;
  m

(* random toy-vocab sources; "d" is OOV, exercising unk + copy *)
let random_src rng =
  let alphabet = [| "a"; "b"; "c"; "d" |] in
  List.init
    (1 + Genie_util.Rng.int rng 4)
    (fun _ -> alphabet.(Genie_util.Rng.int rng 4))

let test_decode_batch1_replay_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode_batch [x] replays decode x (randomized)"
       ~count:25
       QCheck.(int_range 1 10_000)
       (fun seed ->
         let rng = Genie_util.Rng.create seed in
         let m = toy_model ~seed:(1 + Genie_util.Rng.int rng 50) ~epochs:1 () in
         let src = random_src rng in
         let looped = Seq2seq.decode m src in
         match Seq2seq.decode_batch m [ src ] with
         | [ (toks, _) ] -> toks = looped
         | _ -> false))

let test_decode_batched_vs_looped_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"batched decode == looped decode, tokens and score bits"
       ~count:15
       QCheck.(int_range 1 10_000)
       (fun seed ->
         let rng = Genie_util.Rng.create seed in
         let m = toy_model ~seed:(1 + Genie_util.Rng.int rng 50) ~epochs:1 () in
         let srcs =
           List.init (2 + Genie_util.Rng.int rng 5) (fun _ -> random_src rng)
         in
         let batched = Seq2seq.decode_batch m srcs in
         let looped = List.map (fun s -> Seq2seq.decode_batch m [ s ]) srcs in
         List.for_all2
           (fun (bt, bs) one ->
             match one with
             | [ (lt, ls) ] ->
                 bt = lt && Int64.bits_of_float bs = Int64.bits_of_float ls
             | _ -> false)
           batched looped))

let test_decode_scratch_identity () =
  let m = toy_model () in
  let srcs = [ [ "a"; "b"; "c" ]; [ "c" ]; [ "d"; "a" ]; [ "b"; "b" ] ] in
  let plain = Seq2seq.decode_batch m srcs in
  let scratch = Tensor.Scratch.create () in
  (* a reused arena must not change a single bit *)
  for _ = 1 to 3 do
    let arena = Seq2seq.decode_batch ~scratch m srcs in
    List.iter2
      (fun (t1, s1) (t2, s2) ->
        Alcotest.(check (list string)) "tokens" t1 t2;
        Alcotest.(check int64) "score bits" (Int64.bits_of_float s1)
          (Int64.bits_of_float s2))
      plain arena
  done

(* --- the seq2seq behind the interface ----------------------------------------------- *)

(* A seq2seq over the real nn-token syntax: trained just enough to be a
   deterministic function, not to be accurate — serving invariants never
   depend on parse quality. *)
let real_pairs =
  List.map
    (fun (e : Genie_dataset.Example.t) ->
      ( List.filter (fun t -> t <> "\"") e.Genie_dataset.Example.tokens,
        Nn_syntax.to_tokens lib
          (Canonical.normalize lib e.Genie_dataset.Example.program) ))
    (mini_dataset [ "alice"; "bob" ])

let real_seq2seq ?(seed = 3) ?(epochs = 2) () =
  let src_vocab = Vocab.of_tokens (List.concat_map fst real_pairs) in
  let tgt_vocab = Vocab.of_tokens (List.concat_map snd real_pairs) in
  let m =
    Seq2seq.create
      ~cfg:{ Seq2seq.embed_dim = 8; hidden_dim = 10; dropout = 0.0; seed }
      ~src_vocab ~tgt_vocab ()
  in
  Seq2seq.train ~epochs ~batch:2 ~micro:1 m real_pairs;
  m

let seq_model_a = lazy (Model.of_seq2seq ~max_len:24 ~lib (real_seq2seq ()))

let seq_model_b =
  lazy (Model.of_seq2seq ~max_len:24 ~lib (real_seq2seq ~seed:9 ~epochs:3 ()))

let test_seq2seq_behind_interface () =
  let nn = real_seq2seq () in
  let m = Model.of_seq2seq ~max_len:24 ~lib nn in
  Alcotest.(check string) "kind" "seq2seq" (Model.kind_to_string m.Model.kind);
  Alcotest.(check string) "digest is the weight digest"
    (Seq2seq.weight_digest nn) m.Model.digest;
  (* predict is the raw decode, parsed; fork answers identically *)
  let f = m.Model.fork () in
  Alcotest.(check string) "fork digest" m.Model.digest f.Model.digest;
  List.iter
    (fun toks ->
      let p = m.Model.predict toks in
      (match Seq2seq.decode_batch ~max_len:24 nn [ toks ] with
      | [ (raw, logp) ] ->
          Alcotest.(check (list string)) "predict carries the decode" raw
            p.Model.nn_tokens;
          Alcotest.(check int64) "predict carries the decode score"
            (Int64.bits_of_float logp)
            (Int64.bits_of_float p.Model.score)
      | _ -> Alcotest.fail "decode arity");
      Alcotest.(check string) "fork == original"
        (pred_essence (f.Model.predict toks))
        (pred_essence p);
      (* a decode either parses or is carried raw; either way it decoded *)
      Alcotest.(check bool) "score is finite" true
        (Float.is_finite p.Model.score))
    token_lists;
  (* the empty sentence short-circuits (no encoder positions) *)
  let p = m.Model.predict [] in
  Alcotest.(check string) "empty input" (pred_essence Model.no_prediction)
    (pred_essence p)

(* --- seq2seq end-to-end serving ----------------------------------------------------- *)

let request i =
  Request.make ~id:i (List.nth utterances (i mod List.length utterances))

(* worker ids and timings legitimately vary across pool sizes; everything
   else must not *)
let essence (r : Response.t) =
  Printf.sprintf "%d %s %s %s %Lx %b"
    r.Response.id
    (Response.status_to_string r.Response.status)
    (Option.value ~default:"-" r.Response.program_text)
    (String.concat "," r.Response.nn_tokens)
    (Int64.bits_of_float r.Response.score)
    r.Response.from_cache

let serve_essences ?fault ~workers model n =
  let server =
    Server.create ~lib ~model ~workers ?fault ~max_retries:3
      ~retry_backoff_ms:0.01 ~queue_capacity:16 ()
  in
  let out = ref [] in
  for b = 0 to 2 do
    let reqs = List.init n (fun i -> request ((b * n) + i)) in
    out := !out @ List.map essence (Server.run_batch server reqs)
  done;
  let kind = Server.model_kind server in
  Server.shutdown server;
  (!out, kind)

let test_seq2seq_serve_worker_invariance () =
  let model = Lazy.force seq_model_a in
  let n = List.length utterances in
  let base, kind = serve_essences ~workers:0 model n in
  Alcotest.(check string) "stats kind" "seq2seq" kind;
  List.iter
    (fun w ->
      let got, _ = serve_essences ~workers:w model n in
      List.iteri
        (fun i e ->
          Alcotest.(check string)
            (Printf.sprintf "workers=%d response %d" w i)
            (List.nth base i) e)
        got)
    [ 1; 2; 4 ]

let test_seq2seq_serve_fault_invariance () =
  let model = Lazy.force seq_model_a in
  let n = List.length utterances in
  let base, _ = serve_essences ~workers:0 model n in
  let fault =
    match Fault.of_string "seed=7,crash=0.2,crash_attempts=1,drop=0.1" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  (* retries absorb every scheduled crash/drop (attempts exceed the
     schedule), so the fault run must answer byte-identically *)
  List.iter
    (fun w ->
      let got, _ = serve_essences ~fault ~workers:w model n in
      List.iteri
        (fun i e ->
          Alcotest.(check string)
            (Printf.sprintf "faulted workers=%d response %d" w i)
            (List.nth base i) e)
        got)
    [ 0; 2 ]

(* --- checkpoint-backed differential swap -------------------------------------------- *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "genie-model-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let snap step = { Seq2seq.snap_epoch = 1; snap_pos = 0; snap_rng = 0L; snap_step = step }

let save_seq2seq ~path nn =
  Checkpoint.save_model
    ~provenance:[ ("model_kind", "seq2seq") ]
    ~snapshot:(snap 1) ~path nn

(* per-model golden answers on a private sequential server *)
let goldens model n =
  let s = Server.create ~lib ~model () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to (3 * n) - 1 do
    let r = Server.handle s (request i) in
    Hashtbl.replace tbl (r.Response.id mod n) (essence { r with Response.id = r.Response.id mod n; from_cache = false })
  done;
  Server.shutdown s;
  tbl

let test_checkpoint_swap_differential () =
  with_tmpdir (fun dir ->
      let nn_a = real_seq2seq () and nn_b = real_seq2seq ~seed:9 ~epochs:3 () in
      let path_a = Filename.concat dir "a.ckpt"
      and path_b = Filename.concat dir "b.ckpt" in
      save_seq2seq ~path:path_a nn_a;
      save_seq2seq ~path:path_b nn_b;
      let load path =
        match Model.load_checkpoint ~max_len:24 ~lib path with
        | Ok m -> m
        | Error e -> Alcotest.failf "load_checkpoint %s: %s" path e
      in
      let ma = load path_a and mb = load path_b in
      Alcotest.(check string) "A digest survives the round-trip"
        (Seq2seq.weight_digest nn_a) ma.Model.digest;
      Alcotest.(check bool) "A and B genuinely differ" true
        (ma.Model.digest <> mb.Model.digest);
      let n = List.length utterances in
      let ga = goldens ma n and gb = goldens mb n in
      Alcotest.(check bool) "models disagree somewhere" true
        (List.exists
           (fun i -> Hashtbl.find ga i <> Hashtbl.find gb i)
           (List.init n Fun.id));
      List.iter
        (fun workers ->
          let server = Server.create ~lib ~model:ma ~workers () in
          let check_against tbl phase (r : Response.t) =
            let want = Hashtbl.find tbl (r.Response.id mod n) in
            let got =
              essence
                { r with Response.id = r.Response.id mod n; from_cache = false }
            in
            if got <> want then
              Alcotest.failf
                "%s (workers=%d): response %d is not the %s golden:\n\
                \  want %s\n\
                \  got  %s"
                phase workers r.Response.id phase want got
          in
          for b = 0 to 2 do
            List.iter
              (check_against ga "old-model")
              (Server.run_batch server
                 (List.init n (fun i -> request ((b * n) + i))))
          done;
          (match Server.swap_model server mb with
          | `Swapped d -> Alcotest.(check string) "digest is B" mb.Model.digest d
          | `Unchanged _ -> Alcotest.fail "swap did not commit");
          for b = 3 to 5 do
            List.iter
              (check_against gb "new-model")
              (Server.run_batch server
                 (List.init n (fun i -> request ((b * n) + i))))
          done;
          let s = Server.stats server in
          Alcotest.(check int) "one swap" 1 s.Server.swaps;
          Alcotest.(check string) "kind stays seq2seq" "seq2seq"
            s.Server.model_kind;
          Server.shutdown server)
        [ 0; 2; 4 ])

(* --- daemon: checkpoint-backed reload over loopback, fail-closed -------------------- *)

let rec wait_for ?(tries = 400) pred =
  if tries = 0 then Alcotest.fail "timed out waiting for daemon state"
  else if not (pred ()) then begin
    Unix.sleepf 0.005;
    wait_for ~tries:(tries - 1) pred
  end

let mentions needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_daemon_checkpoint_reload_fail_closed () =
  with_tmpdir (fun dir ->
      let nn_a = real_seq2seq () and nn_b = real_seq2seq ~seed:9 ~epochs:3 () in
      let path = Filename.concat dir "live.ckpt" in
      save_seq2seq ~path nn_a;
      let boot =
        match Model.load_checkpoint ~max_len:24 ~lib path with
        | Ok m -> m
        | Error e -> Alcotest.failf "boot load: %s" e
      in
      let server = Server.create ~lib ~model:boot () in
      let swapped = ref None in
      (* the CLI's reload closure: re-read the configured path, fail closed *)
      let reload _ordinal =
        match Model.load_checkpoint ~max_len:24 ~lib path with
        | Ok m -> Some m
        | Error _ -> None
      in
      let d =
        Genie_net.Daemon.create ~server ~reload
          ~on_swap:(fun ~old_digest ~new_digest ->
            swapped := Some (old_digest, new_digest))
          Genie_net.Daemon.default_config
      in
      let dom = Domain.spawn (fun () -> Genie_net.Daemon.run d) in
      let finish () =
        Genie_net.Daemon.request_drain d;
        Domain.join dom;
        Server.shutdown server
      in
      (try
         let c = Genie_net.Client.connect ~port:(Genie_net.Daemon.port d) () in
         Genie_net.Client.send_request c (request 0);
         ignore (Genie_net.Client.recv_response c);
         (* a new checkpoint lands at the same path; SIGHUP picks it up *)
         save_seq2seq ~path nn_b;
         Genie_net.Client.reload c;
         wait_for (fun () -> !swapped <> None);
         (match !swapped with
         | Some (od, nd) ->
             Alcotest.(check string) "old digest"
               (Seq2seq.weight_digest nn_a) od;
             Alcotest.(check string) "new digest"
               (Seq2seq.weight_digest nn_b) nd
         | None -> assert false);
         (* corrupt the file in place: the next reload must fail closed *)
         let oc = open_out_bin path in
         output_string oc "GENIECKP garbage";
         close_out oc;
         Genie_net.Client.reload c;
         wait_for (fun () ->
             mentions "\"reload_failures\":1" (Genie_net.Client.server_stats c));
         (* the daemon keeps answering on the swapped-in model *)
         Genie_net.Client.send_request c (request 1);
         let r = Genie_net.Client.recv_response c in
         Alcotest.(check int) "still answers" 1 r.Genie_net.Codec.rs_id;
         let js = Genie_net.Client.server_stats c in
         Alcotest.(check bool) "stats carry the model kind" true
           (mentions "\"model_kind\":\"seq2seq\"" js);
         Alcotest.(check bool) "stats carry B's digest" true
           (mentions (Seq2seq.weight_digest nn_b) js);
         Genie_net.Client.close c
       with e ->
         finish ();
         raise e);
      finish ();
      let s = Genie_net.Daemon.stats d in
      Alcotest.(check int) "one committed reload" 1 s.Genie_net.Daemon.reloads;
      Alcotest.(check int) "one failed reload" 1
        s.Genie_net.Daemon.reload_failures;
      Alcotest.(check string) "digest stayed on B"
        (Seq2seq.weight_digest nn_b)
        s.Genie_net.Daemon.model_digest;
      Alcotest.(check string) "kind reported" "seq2seq"
        s.Genie_net.Daemon.model_kind)

(* --- checkpoint: weights-only restore and model_kind -------------------------------- *)

let test_restore_weights_skips_moments () =
  let m = toy_model () in
  let ck = Checkpoint.of_model ~snapshot:(snap 9) m in
  (match Checkpoint.restore_weights ck with
  | Error e -> Alcotest.failf "restore_weights: %s" e
  | Ok m' ->
      Alcotest.(check string) "weights restored bitwise"
        (Seq2seq.weight_digest m) (Seq2seq.weight_digest m');
      (* training left nonzero moments behind; the servable restore must
         not carry them *)
      let nonzero p =
        let any = ref false in
        Tensor.iteri
          (fun _ x -> if x <> 0.0 then any := true)
          p.Genie_nn.Layers.m;
        !any
      in
      Alcotest.(check bool) "original has trained moments" true
        (List.exists nonzero (Seq2seq.params m));
      Alcotest.(check bool) "restored moments are zero" false
        (List.exists nonzero (Seq2seq.params m')));
  match Checkpoint.restore ck with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok full ->
      let bits p = Array.map Int64.bits_of_float (Tensor.to_array p.Genie_nn.Layers.m) in
      List.iter2
        (fun p p' ->
          Alcotest.(check (array int64)) "full restore keeps moments" (bits p)
            (bits p'))
        (Seq2seq.params m) (Seq2seq.params full)

let test_model_kind_provenance () =
  let m = toy_model ~epochs:0 () in
  let bare = Checkpoint.of_model ~snapshot:(snap 0) m in
  Alcotest.(check string) "kind defaults to seq2seq" "seq2seq"
    (Checkpoint.model_kind bare);
  let tagged =
    Checkpoint.of_model
      ~provenance:[ ("model_kind", "seq2seq"); ("seed", "11") ]
      ~snapshot:(snap 0) m
  in
  Alcotest.(check string) "kind from provenance" "seq2seq"
    (Checkpoint.model_kind tagged);
  Alcotest.(check bool) "describe reports the kind" true
    (mentions "kind:           seq2seq" (Checkpoint.describe bare))

(* --- checkpoint rotation (keep-last-K GC) ------------------------------------------- *)

let test_rotation_path_format () =
  Alcotest.(check string) "zero-padded"
    "/tmp/m.ckpt.step00000042"
    (Checkpoint.rotation_path ~path:"/tmp/m.ckpt" ~step:42);
  Alcotest.check_raises "negative step"
    (Invalid_argument "Checkpoint.rotation_path: negative step") (fun () ->
      ignore (Checkpoint.rotation_path ~path:"x" ~step:(-1)))

let test_rotation_pruning_order () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "model.ckpt" in
      let m = toy_model () in
      let steps = [ 1; 2; 3; 4; 5 ] in
      List.iter
        (fun step ->
          let written =
            Checkpoint.save_rotating ~snapshot:(snap step) ~path ~keep:3 m
          in
          Alcotest.(check string) "returns the step file"
            (Checkpoint.rotation_path ~path ~step)
            written;
          Alcotest.(check bool) "step file exists" true (Sys.file_exists written);
          Alcotest.(check bool) "latest exists" true (Sys.file_exists path))
        steps;
      (* keep=3: the oldest two rotations were pruned, ascending order *)
      Alcotest.(check (list int)) "last K survive, in step order" [ 3; 4; 5 ]
        (List.map fst (Checkpoint.rotations ~path));
      (* the stable latest file matches the newest rotation byte for byte *)
      let read f = In_channel.with_open_bin f In_channel.input_all in
      Alcotest.(check bool) "latest == newest rotation" true
        (read path = read (Checkpoint.rotation_path ~path ~step:5));
      (* every survivor still loads *)
      List.iter
        (fun (step, file) ->
          match Checkpoint.load file with
          | Error e -> Alcotest.failf "rotation %d unreadable: %s" step e
          | Ok ck ->
              Alcotest.(check int) "snapshot step" step
                ck.Checkpoint.snapshot.Seq2seq.snap_step)
        (Checkpoint.rotations ~path);
      (* stray non-rotation siblings are never touched or listed *)
      let stray = path ^ ".stepXXXXXXXX" in
      let oc = open_out stray in
      output_string oc "not a rotation";
      close_out oc;
      Alcotest.(check (list int)) "non-digit suffix ignored" [ 3; 4; 5 ]
        (List.map fst (Checkpoint.rotations ~path));
      (* explicit prune to 1 deletes oldest-first and spares the latest *)
      let deleted = Checkpoint.prune_rotations ~path ~keep:1 in
      Alcotest.(check (list string)) "deleted oldest first"
        [ Checkpoint.rotation_path ~path ~step:3;
          Checkpoint.rotation_path ~path ~step:4 ]
        deleted;
      Alcotest.(check (list int)) "one rotation left" [ 5 ]
        (List.map fst (Checkpoint.rotations ~path));
      Alcotest.(check bool) "stable latest untouched" true
        (Sys.file_exists path);
      (* keep is clamped >= 1: a save_rotating can never delete the file it
         just wrote *)
      let written =
        Checkpoint.save_rotating ~snapshot:(snap 6) ~path ~keep:0 m
      in
      Alcotest.(check bool) "keep=0 still leaves the new file" true
        (Sys.file_exists written))

let suite =
  [ Alcotest.test_case "aligner behind the interface is byte-identical" `Quick
      test_aligner_behind_interface;
    test_decode_batch1_replay_qcheck;
    test_decode_batched_vs_looped_qcheck;
    Alcotest.test_case "decode scratch arena is bitwise-invisible" `Quick
      test_decode_scratch_identity;
    Alcotest.test_case "seq2seq behind the interface" `Quick
      test_seq2seq_behind_interface;
    Alcotest.test_case "seq2seq serving is worker-count-invariant" `Slow
      test_seq2seq_serve_worker_invariance;
    Alcotest.test_case "seq2seq serving survives fault schedules" `Slow
      test_seq2seq_serve_fault_invariance;
    Alcotest.test_case "checkpoint-backed swap is differential, never mixed"
      `Slow test_checkpoint_swap_differential;
    Alcotest.test_case "daemon checkpoint reload fails closed on corruption"
      `Slow test_daemon_checkpoint_reload_fail_closed;
    Alcotest.test_case "restore_weights skips moments" `Quick
      test_restore_weights_skips_moments;
    Alcotest.test_case "model_kind provenance and describe" `Quick
      test_model_kind_provenance;
    Alcotest.test_case "rotation path format" `Quick test_rotation_path_format;
    Alcotest.test_case "rotation pruning order" `Quick
      test_rotation_pruning_order ]
