(* Tests for checkpoint/resume and live model hot-swap (docs/checkpointing.md):

   - the checkpoint codec: QCheck round-trips over randomized parameter and
     moment shapes (exact float bit patterns), strict rejection of
     truncated / corrupted / wrong-magic / wrong-version / padded files,
     atomic save (no stray .tmp, overwrite-in-place), and restore's
     never-half-load contract;
   - resume determinism: a run killed at optimizer step k (mid-epoch or on
     an epoch boundary) and resumed from its checkpoint lands on weights
     byte-identical to the uninterrupted run, at every worker count;
   - hot-swap atomicity: [Server.swap_model] between batches invalidates
     the parse caches, keeps the compiled-program caches, no-ops on an
     equal digest, and — differentially, against per-model golden response
     sets, under a seeded fault schedule, at several pool sizes — never
     lets a request see a mixture of two models;
   - the daemon's Reload frame end to end over loopback. *)

open Genie_thingtalk
open Genie_serve
open Genie_nn
module Fault = Genie_conc.Fault
open Genie_checkpoint

(* --- a tiny seq2seq training world (mirrors suite_train_parallel) ------------------ *)

let toy_pairs =
  [ ([ "a"; "b" ], [ "x"; "y" ]);
    ([ "b"; "a" ], [ "y"; "x" ]);
    ([ "c"; "b"; "a" ], [ "z"; "x" ]);
    ([ "a" ], [ "x" ]);
    ([ "c" ], [ "z" ]);
    ([ "b"; "c"; "a" ], [ "y"; "z"; "x" ]) ]

let toy_model ?(dropout = 0.1) ?(seed = 11) () =
  let src_vocab = Vocab.of_tokens (List.concat_map fst toy_pairs) in
  let tgt_vocab = Vocab.of_tokens (List.concat_map snd toy_pairs) in
  Seq2seq.create
    ~cfg:{ Seq2seq.embed_dim = 6; hidden_dim = 8; dropout; seed }
    ~src_vocab ~tgt_vocab ()

let mid_snapshot =
  { Seq2seq.snap_epoch = 2; snap_pos = 4; snap_rng = 77L; snap_step = 9 }

(* --- codec round-trips -------------------------------------------------------------- *)

let check_roundtrip name (ck : Checkpoint.t) =
  match Checkpoint.decode (Checkpoint.encode ck) with
  | Error e -> Alcotest.failf "%s: decode failed: %s" name e
  | Ok ck' ->
      Alcotest.(check string) (name ^ ": body digest") (Checkpoint.digest ck)
        (Checkpoint.digest ck');
      Alcotest.(check int)
        (name ^ ": snapshot epoch")
        ck.Checkpoint.snapshot.Seq2seq.snap_epoch
        ck'.Checkpoint.snapshot.Seq2seq.snap_epoch;
      Alcotest.(check (list (pair string string)))
        (name ^ ": provenance") ck.Checkpoint.provenance
        ck'.Checkpoint.provenance;
      List.iter2
        (fun (p : Checkpoint.param_blob) (p' : Checkpoint.param_blob) ->
          Alcotest.(check string) (name ^ ": param name") p.Checkpoint.pb_name
            p'.Checkpoint.pb_name;
          let bits a = Array.map Int64.bits_of_float a in
          Alcotest.(check (array int64))
            (name ^ ": weights bitwise")
            (bits p.Checkpoint.pb_w) (bits p'.Checkpoint.pb_w);
          Alcotest.(check (array int64))
            (name ^ ": first moments bitwise")
            (bits p.Checkpoint.pb_m) (bits p'.Checkpoint.pb_m);
          Alcotest.(check (array int64))
            (name ^ ": second moments bitwise")
            (bits p.Checkpoint.pb_v) (bits p'.Checkpoint.pb_v))
        ck.Checkpoint.params ck'.Checkpoint.params

let test_roundtrip_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"checkpoint round-trip (randomized shapes)"
       ~count:20
       QCheck.(int_range 1 10_000)
       (fun seed ->
         let rng = Genie_util.Rng.create seed in
         let embed = 2 + Genie_util.Rng.int rng 6 in
         let hidden = 2 + Genie_util.Rng.int rng 6 in
         let m =
           Seq2seq.create
             ~cfg:
               { Seq2seq.embed_dim = embed;
                 hidden_dim = hidden;
                 dropout = Genie_util.Rng.float rng 0.5;
                 seed }
             ~src_vocab:(Vocab.of_tokens [ "a"; "b"; "c" ])
             ~tgt_vocab:(Vocab.of_tokens [ "x"; "y" ])
             ()
         in
         (* moments carry whatever training left behind: synthesize some *)
         Seq2seq.train ~epochs:1 ~batch:2 ~micro:1 m toy_pairs;
         let snapshot =
           { Seq2seq.snap_epoch = Genie_util.Rng.int rng 5;
             snap_pos = Genie_util.Rng.int rng 7;
             snap_rng = Int64.of_int (Genie_util.Rng.int rng 1_000_000);
             snap_step = Genie_util.Rng.int rng 100 }
         in
         let ck =
           Checkpoint.of_model
             ~provenance:[ ("k", string_of_int seed); ("empty", "") ]
             ~snapshot m
         in
         check_roundtrip "qcheck" ck;
         true))

let mk_checkpoint () =
  let m = toy_model () in
  Seq2seq.train ~epochs:1 ~batch:2 ~micro:1 m toy_pairs;
  Checkpoint.of_model ~provenance:[ ("seed", "11") ] ~snapshot:mid_snapshot m

let test_rejects_truncation () =
  let s = Checkpoint.encode (mk_checkpoint ()) in
  List.iter
    (fun len ->
      if len < String.length s then
        match Checkpoint.decode (String.sub s 0 len) with
        | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
        | Error _ -> ())
    [ 0; 4; 7; 8; 11; 12; 27; 28; 100; String.length s - 1 ]

let test_rejects_trailing_bytes () =
  let s = Checkpoint.encode (mk_checkpoint ()) in
  match Checkpoint.decode (s ^ "\x00") with
  | Ok _ -> Alcotest.fail "padded file accepted"
  | Error e ->
      Alcotest.(check bool)
        ("mentions corruption: " ^ e)
        true
        (String.length e > 0)

let test_rejects_corruption =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"any single flipped body byte is rejected"
       ~count:30
       QCheck.(int_range 0 1_000_000)
       (fun pos ->
         let s = Bytes.of_string (Checkpoint.encode (mk_checkpoint ())) in
         (* past the header: header corruption is covered separately *)
         let header = 8 + 4 + 16 in
         let i = header + (pos mod (Bytes.length s - header)) in
         Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x5a));
         match Checkpoint.decode (Bytes.to_string s) with
         | Ok _ -> false
         | Error _ -> true))

let test_rejects_bad_magic_and_version () =
  let s = Checkpoint.encode (mk_checkpoint ()) in
  let b = Bytes.of_string s in
  Bytes.set b 0 'X';
  (match Checkpoint.decode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error e ->
      Alcotest.(check bool) ("magic error: " ^ e) true
        (String.length e > 0));
  let b = Bytes.of_string s in
  (* version is a big-endian u32 right after the 8-byte magic *)
  Bytes.set b 11 (Char.chr (Checkpoint.version + 1));
  match Checkpoint.decode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e ->
      Alcotest.(check bool) ("version error: " ^ e) true (String.length e > 0)

let test_restore_never_half_loads () =
  let ck = mk_checkpoint () in
  (* a shape lie must fail restore outright *)
  let bad_shape =
    { ck with
      Checkpoint.params =
        (match ck.Checkpoint.params with
        | p :: rest -> { p with Checkpoint.pb_rows = p.Checkpoint.pb_rows + 1 } :: rest
        | [] -> assert false) }
  in
  (match Checkpoint.restore bad_shape with
  | Ok _ -> Alcotest.fail "shape mismatch restored"
  | Error _ -> ());
  let bad_name =
    { ck with
      Checkpoint.params =
        (match ck.Checkpoint.params with
        | p :: rest -> { p with Checkpoint.pb_name = "nonsense" } :: rest
        | [] -> assert false) }
  in
  match Checkpoint.restore bad_name with
  | Ok _ -> Alcotest.fail "name mismatch restored"
  | Error _ -> ()

let test_restore_bitwise () =
  let m = toy_model () in
  Seq2seq.train ~epochs:2 ~batch:2 ~micro:1 m toy_pairs;
  let ck = Checkpoint.of_model ~snapshot:mid_snapshot m in
  Alcotest.(check string) "captured weight digest matches live model"
    (Seq2seq.weight_digest m) (Checkpoint.weight_digest ck);
  match Checkpoint.restore ck with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok m' ->
      Alcotest.(check string) "restored weight digest"
        (Seq2seq.weight_digest m) (Seq2seq.weight_digest m');
      (* moments and step round-tripped too: re-capturing must be identical *)
      Alcotest.(check string) "re-captured body digest"
        (Checkpoint.digest ck)
        (Checkpoint.digest (Checkpoint.of_model ~snapshot:mid_snapshot m'))

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "genie-ckpt-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_atomic_save_load () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "model.ckpt" in
      let ck = mk_checkpoint () in
      Checkpoint.save ~path ck;
      Alcotest.(check bool) "no stray tmp file" false
        (Sys.file_exists (path ^ ".tmp"));
      (match Checkpoint.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok ck' ->
          Alcotest.(check string) "digest survives disk" (Checkpoint.digest ck)
            (Checkpoint.digest ck'));
      (* overwrite in place: the newer capture wins whole *)
      let m2 = toy_model ~seed:12 () in
      Seq2seq.train ~epochs:1 ~batch:2 ~micro:1 m2 toy_pairs;
      let ck2 = Checkpoint.of_model ~snapshot:mid_snapshot m2 in
      Checkpoint.save ~path ck2;
      (match Checkpoint.load path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok ck' ->
          Alcotest.(check string) "overwritten whole"
            (Checkpoint.digest ck2) (Checkpoint.digest ck'));
      match Checkpoint.load (Filename.concat dir "absent.ckpt") with
      | Ok _ -> Alcotest.fail "absent file loaded"
      | Error _ -> ())

(* --- describe / inspect (genie ckpt inspect) --------------------------------------- *)

let test_describe_inspect () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "model.ckpt" in
      let ck = mk_checkpoint () in
      Checkpoint.save ~path ck;
      let report =
        match Checkpoint.inspect path with
        | Ok s -> s
        | Error e -> Alcotest.failf "inspect failed: %s" e
      in
      Alcotest.(check string) "inspect = describe of the loaded checkpoint"
        (Checkpoint.describe ck) report;
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("report mentions " ^ sub) true
            (Genie_util.Tok.contains_substring ~sub report))
        [ "version:"; "digest:"; Checkpoint.digest ck;
          Checkpoint.weight_digest ck; "snapshot:"; "epoch=2"; "provenance";
          "seed"; "11" ];
      (* a truncated file yields the decode error, never a partial report *)
      let s = Checkpoint.encode ck in
      let bad = Filename.concat dir "bad.ckpt" in
      let oc = open_out_bin bad in
      output_string oc (String.sub s 0 (String.length s - 9));
      close_out oc;
      match Checkpoint.inspect bad with
      | Ok _ -> Alcotest.fail "truncated checkpoint produced a report"
      | Error e ->
          Alcotest.(check bool) "error is reported" true (String.length e > 0))

let test_describe_empty_provenance () =
  let m = toy_model () in
  let ck = Checkpoint.of_model ~snapshot:mid_snapshot m in
  Alcotest.(check bool) "empty provenance is explicit" true
    (Genie_util.Tok.contains_substring ~sub:"provenance:     (none)"
       (Checkpoint.describe ck))

(* --- resume determinism -------------------------------------------------------------- *)

let uninterrupted_digest ~workers () =
  let m = toy_model () in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~workers m toy_pairs;
  Seq2seq.weight_digest m

(* Train to completion once, checkpointing at every optimizer step (in
   memory, through the full encode/decode codec so the disk path is what is
   exercised); then, for each captured step, restore a fresh model from the
   checkpoint bytes and finish the run. Every resumed future must land on
   the uninterrupted run's exact weights. *)
let test_resume_from_every_step () =
  let expected = uninterrupted_digest ~workers:0 () in
  let captured = ref [] in
  let m = toy_model () in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1
    ~checkpoint_every:1
    ~checkpoint:(fun snap ->
      if snap.Seq2seq.snap_epoch <= 3 then
        captured :=
          Checkpoint.encode (Checkpoint.of_model ~snapshot:snap m) :: !captured)
    m toy_pairs;
  Alcotest.(check string) "checkpointing run unchanged" expected
    (Seq2seq.weight_digest m);
  let captured = List.rev !captured in
  Alcotest.(check bool) "several checkpoints captured" true
    (List.length captured >= 6);
  List.iteri
    (fun i bytes ->
      match Checkpoint.decode bytes with
      | Error e -> Alcotest.failf "checkpoint %d decode: %s" i e
      | Ok ck -> (
          match Checkpoint.restore ck with
          | Error e -> Alcotest.failf "checkpoint %d restore: %s" i e
          | Ok m' ->
              Seq2seq.train ~epochs:3 ~batch:2 ~micro:1
                ~resume:ck.Checkpoint.snapshot m' toy_pairs;
              Alcotest.(check string)
                (Printf.sprintf "resume from step %d (epoch %d pos %d)" i
                   ck.Checkpoint.snapshot.Seq2seq.snap_epoch
                   ck.Checkpoint.snapshot.Seq2seq.snap_pos)
                expected
                (Seq2seq.weight_digest m')))
    captured

(* The kill-at-step-k drill at several pool sizes: stop a run after k
   optimizer steps (the checkpoint callback fires on the stop), resume the
   checkpoint under each worker count, and require the uninterrupted
   digest. Exercises both a mid-epoch k and an epoch-boundary k. *)
let resume_after_kill ~stop_after ~workers () =
  let expected = uninterrupted_digest ~workers:0 () in
  let saved = ref None in
  let m = toy_model () in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~stop_after
    ~checkpoint:(fun snap ->
      saved := Some (Checkpoint.encode (Checkpoint.of_model ~snapshot:snap m)))
    m toy_pairs;
  let bytes =
    match !saved with
    | Some b -> b
    | None -> Alcotest.fail "stop_after fired no checkpoint"
  in
  Alcotest.(check bool) "killed run differs from finished run" true
    (Seq2seq.weight_digest m <> expected);
  match Checkpoint.decode bytes with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok ck -> (
      match Checkpoint.restore ck with
      | Error e -> Alcotest.failf "restore: %s" e
      | Ok m' ->
          Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~workers
            ~resume:ck.Checkpoint.snapshot m' toy_pairs;
          Alcotest.(check string)
            (Printf.sprintf "kill at step %d, resume at workers=%d" stop_after
               workers)
            expected (Seq2seq.weight_digest m'))

let test_kill_resume_mid_epoch () =
  List.iter (fun w -> resume_after_kill ~stop_after:4 ~workers:w ()) [ 0; 1; 2; 4 ]

let test_kill_resume_epoch_boundary () =
  (* 6 examples / batch 2 = 3 steps per epoch; step 3 is an epoch boundary *)
  List.iter (fun w -> resume_after_kill ~stop_after:3 ~workers:w ()) [ 0; 2 ]

let test_checkpoint_cadence () =
  (* 3 epochs x 3 steps = 9 steps; every 2 steps -> steps 2,4,6,8 plus the
     terminal checkpoint after the last epoch *)
  let fired = ref [] in
  let m = toy_model () in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~checkpoint_every:2
    ~checkpoint:(fun snap -> fired := snap.Seq2seq.snap_step :: !fired)
    m toy_pairs;
  Alcotest.(check (list int)) "cadence + terminal" [ 2; 4; 6; 8; 9 ]
    (List.rev !fired)

let test_save_load_model_files () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "m.ckpt" in
      let m = toy_model () in
      Seq2seq.train ~epochs:1 ~batch:2 ~micro:1 m toy_pairs;
      Checkpoint.save_model
        ~provenance:[ ("recipe", "toy"); ("quoted", "a \"b\" c\nd") ]
        ~snapshot:mid_snapshot ~path m;
      match Checkpoint.load_model path with
      | Error e -> Alcotest.failf "load_model: %s" e
      | Ok (m', ck) ->
          Alcotest.(check string) "weights through disk"
            (Seq2seq.weight_digest m) (Seq2seq.weight_digest m');
          Alcotest.(check int) "snapshot step" mid_snapshot.Seq2seq.snap_step
            ck.Checkpoint.snapshot.Seq2seq.snap_step;
          Alcotest.(check (option string)) "provenance with escapes"
            (Some "a \"b\" c\nd")
            (List.assoc_opt "quoted" ck.Checkpoint.provenance))

let test_vocab_tokens_roundtrip () =
  let v = Vocab.of_tokens [ "b"; "a"; "c"; "a"; "b" ] in
  let v' = Vocab.of_tokens (Vocab.tokens v) in
  Alcotest.(check int) "size" (Vocab.size v) (Vocab.size v');
  List.iter
    (fun t -> Alcotest.(check int) ("id of " ^ t) (Vocab.id v t) (Vocab.id v' t))
    (Vocab.tokens v)

let test_rng_cursor_roundtrip () =
  let r = Genie_util.Rng.create 42 in
  for _ = 1 to 17 do ignore (Genie_util.Rng.int r 1000) done;
  let cur = Genie_util.Rng.cursor r in
  let future = List.init 8 (fun _ -> Genie_util.Rng.int r 1000) in
  let r' = Genie_util.Rng.create 0 in
  Genie_util.Rng.set_cursor r' cur;
  Alcotest.(check (list int)) "cursor restores the exact stream" future
    (List.init 8 (fun _ -> Genie_util.Rng.int r' 1000))

(* two kills in one run: resume, get killed again, resume again -- the
   composed futures must still land on the uninterrupted weights *)
let test_double_kill_resume () =
  let expected = uninterrupted_digest ~workers:0 () in
  let kill m ~resume ~stop_after =
    let saved = ref None in
    Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ?resume ~stop_after
      ~checkpoint:(fun snap ->
        saved := Some (Checkpoint.encode (Checkpoint.of_model ~snapshot:snap m)))
      m toy_pairs;
    match !saved with
    | Some b -> b
    | None -> Alcotest.fail "no checkpoint on kill"
  in
  let reload bytes =
    match Checkpoint.decode bytes with
    | Error e -> Alcotest.failf "decode: %s" e
    | Ok ck -> (
        match Checkpoint.restore ck with
        | Error e -> Alcotest.failf "restore: %s" e
        | Ok m -> (m, ck.Checkpoint.snapshot))
  in
  let b1 = kill (toy_model ()) ~resume:None ~stop_after:2 in
  let m2, s2 = reload b1 in
  let b2 = kill m2 ~resume:(Some s2) ~stop_after:7 in
  let m3, s3 = reload b2 in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~resume:s3 m3 toy_pairs;
  Alcotest.(check string) "kill twice, resume twice" expected
    (Seq2seq.weight_digest m3)

let test_stop_after_past_end_is_completion () =
  let expected = uninterrupted_digest ~workers:0 () in
  let last = ref None in
  let m = toy_model () in
  Seq2seq.train ~epochs:3 ~batch:2 ~micro:1 ~stop_after:1000
    ~checkpoint:(fun snap -> last := Some snap)
    m toy_pairs;
  Alcotest.(check string) "ran to completion" expected (Seq2seq.weight_digest m);
  match !last with
  | Some snap ->
      (* the terminal snapshot: epoch past the end, 9 total steps taken *)
      Alcotest.(check int) "terminal epoch" 4 snap.Seq2seq.snap_epoch;
      Alcotest.(check int) "terminal step" 9 snap.Seq2seq.snap_step
  | None -> Alcotest.fail "no terminal checkpoint"

(* --- hot-swap: server-level atomicity ------------------------------------------------ *)

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

(* Two genuinely different models: B has never seen the email or monitor
   programs, so several utterances parse differently under it. *)
let model_a =
  lazy
    (Genie_parser_model.Model.of_aligner
       (Genie_parser_model.Aligner.train lib
          (mini_dataset [ "alice"; "bob"; "carol"; "dan"; "eve"; "mallory" ])))

let model_b =
  lazy
    (Genie_parser_model.Model.of_aligner
       (Genie_parser_model.Aligner.train lib
          (List.filter
             (fun (e : Genie_dataset.Example.t) ->
               match e.Genie_dataset.Example.tokens with
               | "tweet" :: _ -> true
               | _ -> false)
             (mini_dataset [ "alice"; "bob"; "carol" ]))))

let model_digest (m : Genie_parser_model.Model.t) =
  m.Genie_parser_model.Model.digest

let utterances =
  [ "tweet alice"; "tweet bob"; "show me emails from carol"; "get a cat picture";
    "when i receive an email , get a cat picture"; "tweet dan";
    "show me emails from eve"; "tweet mallory" ]

let utterance i = List.nth utterances (i mod List.length utterances)
let request i = Request.make ~id:i (utterance i)

(* what a response claims about the model that produced it (id excluded so
   goldens can be compared across request numbering) *)
let essence (r : Response.t) =
  Printf.sprintf "%s %s %s"
    (utterance r.Response.id)
    (Response.status_to_string r.Response.status)
    (Option.value ~default:"-" r.Response.program_text)

(* per-model golden answers, computed on private sequential servers *)
let goldens model =
  let s = Server.create ~lib ~model () in
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i u ->
      Hashtbl.replace tbl u (essence (Server.handle s (Request.make ~id:i u))))
    utterances;
  Server.shutdown s;
  tbl

let goldens_a = lazy (goldens (Lazy.force model_a))
let goldens_b = lazy (goldens (Lazy.force model_b))

let test_aligner_digest_identity () =
  let a = Lazy.force model_a and b = Lazy.force model_b in
  Alcotest.(check bool) "distinct models, distinct digests" true
    (model_digest a <> model_digest b);
  (* retraining on the same data is the same model *)
  let a' =
    Genie_parser_model.Model.of_aligner
      (Genie_parser_model.Aligner.train lib
         (mini_dataset [ "alice"; "bob"; "carol"; "dan"; "eve"; "mallory" ]))
  in
  Alcotest.(check string) "retrain reproduces the digest" (model_digest a)
    (model_digest a');
  (* goldens must actually differ somewhere, or the differential tests
     below prove nothing *)
  let ga = Lazy.force goldens_a and gb = Lazy.force goldens_b in
  Alcotest.(check bool) "models disagree on some utterance" true
    (List.exists (fun u -> Hashtbl.find ga u <> Hashtbl.find gb u) utterances)

let test_swap_invalidates_parse_cache () =
  let server = Server.create ~lib ~model:(Lazy.force model_a) () in
  List.iteri (fun i u -> ignore (Server.handle server (Request.make ~id:i u))) utterances;
  let before = Server.stats server in
  Alcotest.(check bool) "cache warmed" true (before.Server.cache_entries > 0);
  let compile_before = before.Server.compile_entries in
  (match Server.swap_model server (Lazy.force model_b) with
  | `Swapped d ->
      Alcotest.(check string) "digest is B"
        (model_digest (Lazy.force model_b))
        d
  | `Unchanged _ -> Alcotest.fail "distinct model reported unchanged");
  let after = Server.stats server in
  Alcotest.(check int) "parse cache emptied" 0 after.Server.cache_entries;
  Alcotest.(check int) "compiled programs kept" compile_before
    after.Server.compile_entries;
  Alcotest.(check int) "swap counted" 1 after.Server.swaps;
  Alcotest.(check string) "stats report the new digest"
    (model_digest (Lazy.force model_b))
    after.Server.model_digest;
  let stages = (Server.metrics_snapshot server).Metrics.stages in
  Alcotest.(check int) "swap.commit probe" 1
    (List.assoc "swap.commit" stages);
  Alcotest.(check int) "swap.cache_invalidate probe" 1
    (List.assoc "swap.cache_invalidate" stages);
  Server.shutdown server

let test_swap_noop_on_equal_digest () =
  let server = Server.create ~lib ~model:(Lazy.force model_a) () in
  List.iteri (fun i u -> ignore (Server.handle server (Request.make ~id:i u))) utterances;
  let warmed = (Server.stats server).Server.cache_entries in
  (* an equal model (fresh retrain, same data) must not disturb the caches *)
  let same =
    Genie_parser_model.Model.of_aligner
      (Genie_parser_model.Aligner.train lib
         (mini_dataset [ "alice"; "bob"; "carol"; "dan"; "eve"; "mallory" ]))
  in
  (match Server.swap_model server same with
  | `Unchanged _ -> ()
  | `Swapped _ -> Alcotest.fail "equal digest must no-op");
  let s = Server.stats server in
  Alcotest.(check int) "caches untouched" warmed s.Server.cache_entries;
  Alcotest.(check int) "no swap counted" 0 s.Server.swaps;
  Alcotest.(check int) "swap.noop probe" 1
    (List.assoc "swap.noop" ((Server.metrics_snapshot server).Metrics.stages));
  Server.shutdown server

(* The differential drill: traffic in micro-batches with a swap between two
   of them; every response must match the old model's golden before the
   swap and the new model's after — and at no point anything else (a
   mixture would mean a half-loaded model answered). Run at several pool
   sizes, optionally under a seeded fault schedule (crashes + retries must
   not let a request slip across the swap boundary with mixed weights). *)
let differential_swap ?fault ~workers () =
  let server =
    Server.create ~lib ~model:(Lazy.force model_a) ~workers ?fault
      ~max_retries:2 ~retry_backoff_ms:0.01 ()
  in
  let ga = Lazy.force goldens_a and gb = Lazy.force goldens_b in
  let check_against tbl phase (r : Response.t) =
    let want = Hashtbl.find tbl (utterance r.Response.id) in
    let got = essence r in
    if got <> want then
      Alcotest.failf "%s (workers=%d): response %d is not the %s golden:\n  want %s\n  got  %s"
        phase workers r.Response.id phase want got
  in
  let n = List.length utterances in
  (* three batches on A, swap, three batches on B *)
  for b = 0 to 2 do
    let reqs = List.init n (fun i -> request ((b * n) + i)) in
    List.iter (check_against ga "old-model") (Server.run_batch server reqs)
  done;
  (match Server.swap_model server (Lazy.force model_b) with
  | `Swapped _ -> ()
  | `Unchanged _ -> Alcotest.fail "swap did not commit");
  for b = 3 to 5 do
    let reqs = List.init n (fun i -> request ((b * n) + i)) in
    List.iter (check_against gb "new-model") (Server.run_batch server reqs)
  done;
  let s = Server.stats server in
  Alcotest.(check int) "one swap" 1 s.Server.swaps;
  Server.shutdown server

let test_differential_swap_across_pools () =
  List.iter (fun w -> differential_swap ~workers:w ()) [ 0; 2; 4 ]

let test_differential_swap_under_faults () =
  let fault =
    match Fault.of_string "seed=7,crash=0.2,crash_attempts=1,drop=0.1" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  (* faulty responses may be Error/Timeout rather than the golden text, so
     compare only the responses that completed ok *)
  let server =
    Server.create ~lib ~model:(Lazy.force model_a) ~fault ~max_retries:2
      ~retry_backoff_ms:0.01 ()
  in
  let ga = Lazy.force goldens_a and gb = Lazy.force goldens_b in
  let check tbl (r : Response.t) =
    if r.Response.status = Response.Ok then begin
      let got = essence r in
      let want = Hashtbl.find tbl (utterance r.Response.id) in
      if got <> want then
        Alcotest.failf "faulted swap: response %d mixed models:\n  want %s\n  got  %s"
          r.Response.id want got
    end
  in
  let n = List.length utterances in
  for b = 0 to 3 do
    List.iter (check ga)
      (Server.run_batch server (List.init n (fun i -> request ((b * n) + i))))
  done;
  ignore (Server.swap_model server (Lazy.force model_b));
  for b = 4 to 7 do
    List.iter (check gb)
      (Server.run_batch server (List.init n (fun i -> request ((b * n) + i))))
  done;
  Server.shutdown server

(* --- hot-swap: the daemon's Reload frame over loopback ------------------------------- *)

let test_codec_reload_roundtrip () =
  let f = Genie_net.Codec.encode Genie_net.Codec.Reload in
  let d = Genie_net.Frame.decoder () in
  Genie_net.Frame.feed d f;
  (match Genie_net.Frame.next d with
  | Ok (Some payload) -> (
      match Genie_net.Codec.decode payload with
      | Ok Genie_net.Codec.Reload -> ()
      | Ok _ -> Alcotest.fail "Reload decoded as something else"
      | Error e -> Alcotest.failf "Reload rejected: %s" e)
  | Ok None -> Alcotest.fail "Reload frame incomplete"
  | Error _ -> Alcotest.fail "Reload frame rejected")

let rec wait_for ?(tries = 400) pred =
  if tries = 0 then Alcotest.fail "timed out waiting for daemon state"
  else if not (pred ()) then begin
    Unix.sleepf 0.005;
    wait_for ~tries:(tries - 1) pred
  end

let test_daemon_reload_over_loopback () =
  let server = Server.create ~lib ~model:(Lazy.force model_a) () in
  let swapped = ref None in
  let d =
    Genie_net.Daemon.create ~server
      ~reload:(fun _ordinal -> Some (Lazy.force model_b))
      ~on_swap:(fun ~old_digest ~new_digest ->
        swapped := Some (old_digest, new_digest))
      Genie_net.Daemon.default_config
  in
  let dom = Domain.spawn (fun () -> Genie_net.Daemon.run d) in
  let ga = Lazy.force goldens_a and gb = Lazy.force goldens_b in
  let finish () =
    Genie_net.Daemon.request_drain d;
    Domain.join dom;
    Server.shutdown server
  in
  (try
     let c = Genie_net.Client.connect ~port:(Genie_net.Daemon.port d) () in
     let n = List.length utterances in
     let roundtrip tbl phase base =
       List.iter
         (fun i -> Genie_net.Client.send_request c (request (base + i)))
         (List.init n Fun.id);
       List.iter
         (fun _ ->
           let r = Genie_net.Client.recv_response c in
           let u = utterance r.Genie_net.Codec.rs_id in
           let got =
             Printf.sprintf "%s %s %s" u r.Genie_net.Codec.rs_status
               (Option.value ~default:"-" r.Genie_net.Codec.rs_program)
           in
           let want = Hashtbl.find tbl u in
           if got <> want then
             Alcotest.failf "loopback %s: response %d:\n  want %s\n  got  %s"
               phase r.Genie_net.Codec.rs_id want got)
         (List.init n Fun.id)
     in
     roundtrip ga "pre-reload" 0;
     Genie_net.Client.reload c;
     (* the swap commits between batches; wait until the loop serviced it *)
     wait_for (fun () -> !swapped <> None);
     roundtrip gb "post-reload" 100;
     (* live remote stats must carry the new identity *)
     let js = Genie_net.Client.server_stats c in
     let digest_b = model_digest (Lazy.force model_b) in
     let mentions needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "stats json reports the swapped digest" true
       (mentions digest_b js);
     Alcotest.(check bool) "stats json counts the reload" true
       (mentions "\"reloads\":1" js);
     Genie_net.Client.close c
   with e ->
     finish ();
     raise e);
  finish ();
  (match !swapped with
  | Some (od, nd) ->
      Alcotest.(check string) "old digest" (model_digest (Lazy.force model_a)) od;
      Alcotest.(check string) "new digest" (model_digest (Lazy.force model_b)) nd
  | None -> Alcotest.fail "on_swap never fired");
  let s = Genie_net.Daemon.stats d in
  Alcotest.(check int) "reloads" 1 s.Genie_net.Daemon.reloads;
  Alcotest.(check int) "reload failures" 0 s.Genie_net.Daemon.reload_failures;
  Alcotest.(check string) "daemon stats digest"
    (model_digest (Lazy.force model_b))
    s.Genie_net.Daemon.model_digest;
  Alcotest.(check bool) "drained" true s.Genie_net.Daemon.drained

let test_daemon_reload_without_source_fails_closed () =
  let server = Server.create ~lib ~model:(Lazy.force model_a) () in
  let d = Genie_net.Daemon.create ~server Genie_net.Daemon.default_config in
  let dom = Domain.spawn (fun () -> Genie_net.Daemon.run d) in
  let c = Genie_net.Client.connect ~port:(Genie_net.Daemon.port d) () in
  Genie_net.Client.reload c;
  (* the daemon must keep serving the old model, counting the failure *)
  Genie_net.Client.send_request c (request 0);
  let r = Genie_net.Client.recv_response c in
  Alcotest.(check string) "still answers" "ok" r.Genie_net.Codec.rs_status;
  Genie_net.Client.close c;
  Genie_net.Daemon.request_drain d;
  Domain.join dom;
  Server.shutdown server;
  let s = Genie_net.Daemon.stats d in
  Alcotest.(check int) "failure counted" 1 s.Genie_net.Daemon.reload_failures;
  Alcotest.(check int) "no swap" 0 s.Genie_net.Daemon.reloads;
  Alcotest.(check string) "digest unchanged"
    (model_digest (Lazy.force model_a))
    s.Genie_net.Daemon.model_digest

let suite =
  [ test_roundtrip_qcheck;
    Alcotest.test_case "truncated files rejected" `Quick test_rejects_truncation;
    Alcotest.test_case "trailing bytes rejected" `Quick
      test_rejects_trailing_bytes;
    test_rejects_corruption;
    Alcotest.test_case "bad magic / future version rejected" `Quick
      test_rejects_bad_magic_and_version;
    Alcotest.test_case "restore never half-loads" `Quick
      test_restore_never_half_loads;
    Alcotest.test_case "restore is bitwise (weights, moments, step)" `Quick
      test_restore_bitwise;
    Alcotest.test_case "atomic save / load / overwrite" `Quick
      test_atomic_save_load;
    Alcotest.test_case "describe / inspect report" `Quick test_describe_inspect;
    Alcotest.test_case "describe with empty provenance" `Quick
      test_describe_empty_provenance;
    Alcotest.test_case "resume from every optimizer step" `Quick
      test_resume_from_every_step;
    Alcotest.test_case "kill mid-epoch, resume at 0/1/2/4 workers" `Quick
      test_kill_resume_mid_epoch;
    Alcotest.test_case "kill on an epoch boundary, resume" `Quick
      test_kill_resume_epoch_boundary;
    Alcotest.test_case "checkpoint cadence + terminal checkpoint" `Quick
      test_checkpoint_cadence;
    Alcotest.test_case "save_model / load_model through files" `Quick
      test_save_load_model_files;
    Alcotest.test_case "vocab token lists round-trip ids" `Quick
      test_vocab_tokens_roundtrip;
    Alcotest.test_case "rng cursor restores the exact stream" `Quick
      test_rng_cursor_roundtrip;
    Alcotest.test_case "kill twice, resume twice" `Quick test_double_kill_resume;
    Alcotest.test_case "stop past the end is a completed run" `Quick
      test_stop_after_past_end_is_completion;
    Alcotest.test_case "aligner digest is a model identity" `Quick
      test_aligner_digest_identity;
    Alcotest.test_case "swap invalidates parse cache, keeps compiled" `Quick
      test_swap_invalidates_parse_cache;
    Alcotest.test_case "swap no-ops on an equal digest" `Quick
      test_swap_noop_on_equal_digest;
    Alcotest.test_case "differential swap at 0/2/4 workers" `Quick
      test_differential_swap_across_pools;
    Alcotest.test_case "differential swap under a fault schedule" `Quick
      test_differential_swap_under_faults;
    Alcotest.test_case "Reload frame round-trips" `Quick
      test_codec_reload_roundtrip;
    Alcotest.test_case "daemon Reload hot-swaps over loopback" `Quick
      test_daemon_reload_over_loopback;
    Alcotest.test_case "reload without a source fails closed" `Quick
      test_daemon_reload_without_source_fails_closed ]
