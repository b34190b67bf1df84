(* Tests for the network serving subsystem: the pure framing codec (QCheck
   round-trips, garbage rejection, byte-at-a-time reassembly), the message
   codec, the admission batcher under a virtual clock, graceful drain
   (every admitted request answered exactly once, at several pool sizes),
   and the full daemon + client + loadgen path over loopback — whose
   response stream must be digest-identical to an in-process
   [Server.run_batch] on the same requests.

   Everything socket-free is driven by injected clocks and fake fds so it
   is exactly reproducible; the loopback tests use a single connection
   where ordering matters (TCP preserves per-connection order, so a Drain
   frame sent after N requests is always processed after them). *)

open Genie_thingtalk
open Genie_serve
open Genie_net

let lib = Genie_thingpedia.Thingpedia.core_library ()
let parse = Parser.parse_program

(* a tiny but non-degenerate training set (mirrors suite_serve) *)
let mini_dataset () =
  let mk sentence src =
    Genie_dataset.Example.make ~id:0 ~tokens:(Genie_util.Tok.tokenize sentence)
      ~program:(parse src) ~source:Genie_dataset.Example.Synthesized ()
  in
  List.concat
    (List.init 6 (fun i ->
         let name = List.nth [ "alice"; "bob"; "carol"; "dan"; "eve"; "mallory" ] i in
         [ mk
             (Printf.sprintf "tweet %s" name)
             (Printf.sprintf "now => @com.twitter.post(status = \"%s\");" name);
           mk
             (Printf.sprintf "show me emails from %s" name)
             (Printf.sprintf
                "now => (@com.gmail.inbox()) filter sender_name == \"%s\" => notify;" name);
           mk "get a cat picture" "now => @com.thecatapi.get() => notify;";
           mk "when i receive an email , get a cat picture"
             "monitor (@com.gmail.inbox()) => @com.thecatapi.get() => notify;" ]))

let model =
  lazy
    (Genie_parser_model.Model.of_aligner
       (Genie_parser_model.Aligner.train lib (mini_dataset ())))

let utterances =
  [ "tweet alice"; "tweet bob"; "show me emails from carol"; "get a cat picture";
    "when i receive an email , get a cat picture"; "tweet dan";
    "show me emails from eve"; "tweet mallory" ]

let utterance i = List.nth utterances (i mod List.length utterances)
let request i = Request.make ~id:i (utterance i)

let mk_server ?tracer ?model:m ?(workers = 0) () =
  let model = match m with Some m -> m | None -> Lazy.force model in
  Server.create ~lib ~model ~workers ?tracer ()

(* pool sizes exercised by the drain tests; CI legs override via
   GENIE_TEST_WORKERS, the sequential reference is always included *)
let worker_counts =
  match Sys.getenv_opt "GENIE_TEST_WORKERS" with
  | None -> [ 0; 1; 2; 4 ]
  | Some s ->
      0
      :: (String.split_on_char ',' (String.trim s)
         |> List.filter (fun x -> x <> "")
         |> List.map int_of_string)

(* --- framing: deterministic cases -------------------------------------------- *)

let frame_eq (a : Frame.t) (b : Frame.t) =
  a.Frame.kind = b.Frame.kind && a.Frame.payload = b.Frame.payload

let test_frame_simple_roundtrip () =
  let f = { Frame.kind = 7; payload = "hello world" } in
  let d = Frame.decoder () in
  Frame.feed d (Frame.encode f);
  (match Frame.next d with
  | Ok (Some g) -> Alcotest.(check bool) "same frame" true (frame_eq f g)
  | _ -> Alcotest.fail "expected a complete frame");
  Alcotest.(check int) "nothing left" 0 (Frame.pending_bytes d);
  match Frame.next d with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected Ok None on an empty decoder"

let test_frame_empty_payload () =
  let f = { Frame.kind = 0; payload = "" } in
  let d = Frame.decoder () in
  Frame.feed d (Frame.encode f);
  match Frame.next d with
  | Ok (Some g) ->
      Alcotest.(check string) "empty payload" "" g.Frame.payload;
      Alcotest.(check int) "kind" 0 g.Frame.kind
  | _ -> Alcotest.fail "expected a complete frame"

let test_frame_max_size () =
  (* a decoder with a tiny cap: a payload at exactly the cap decodes, one
     byte over poisons with Oversized *)
  let cap = 64 in
  let d = Frame.decoder ~max_payload:cap () in
  let at = { Frame.kind = 1; payload = String.make cap 'x' } in
  Frame.feed d (Frame.encode at);
  (match Frame.next d with
  | Ok (Some g) -> Alcotest.(check int) "cap-sized payload" cap (String.length g.Frame.payload)
  | _ -> Alcotest.fail "cap-sized frame must decode");
  let over = { Frame.kind = 1; payload = String.make (cap + 1) 'x' } in
  Frame.feed d (Frame.encode over);
  (match Frame.next d with
  | Error (Frame.Oversized n) -> Alcotest.(check int) "declared size" (cap + 1) n
  | _ -> Alcotest.fail "expected Oversized");
  (* poisoned: same error forever, even after more (valid) bytes *)
  Frame.feed d (Frame.encode at);
  match Frame.next d with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "decoder must stay poisoned"

let test_frame_garbage_prefix () =
  let d = Frame.decoder () in
  Frame.feed d "XYZZY";
  (match Frame.next d with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "garbage must be rejected as Bad_magic");
  (* the error is permanent *)
  Frame.feed d (Frame.encode { Frame.kind = 1; payload = "ok" });
  match Frame.next d with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "decoder must stay poisoned after garbage"

let test_frame_garbage_rejected_before_length () =
  (* one wrong byte is enough: rejection must not wait for the (bogus)
     declared length to be satisfied *)
  let d = Frame.decoder () in
  Frame.feed d "Q";
  match Frame.next d with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "first wrong byte must already reject"

let test_frame_bad_version () =
  let good = Frame.encode { Frame.kind = 1; payload = "p" } in
  let bad = Bytes.of_string good in
  Bytes.set bad 2 (Char.chr 99);
  let d = Frame.decoder () in
  Frame.feed d (Bytes.to_string bad);
  match Frame.next d with
  | Error (Frame.Bad_version 99) -> ()
  | _ -> Alcotest.fail "expected Bad_version 99"

let test_frame_truncated () =
  let wire = Frame.encode { Frame.kind = 3; payload = "abcdefgh" } in
  let d = Frame.decoder () in
  (* everything but the last byte: not an error, just incomplete *)
  Frame.feed d ~len:(String.length wire - 1) wire;
  (match Frame.next d with
  | Ok None -> ()
  | _ -> Alcotest.fail "truncated frame must be Ok None (need more)");
  Alcotest.(check bool) "truncation is visible" true (Frame.pending_bytes d > 0);
  (* the last byte completes it *)
  Frame.feed d ~off:(String.length wire - 1) wire;
  match Frame.next d with
  | Ok (Some f) -> Alcotest.(check string) "payload" "abcdefgh" f.Frame.payload
  | _ -> Alcotest.fail "expected completion"

let test_frame_byte_at_a_time () =
  let frames =
    [ { Frame.kind = 1; payload = "" };
      { Frame.kind = 200; payload = "x" };
      { Frame.kind = 9; payload = String.init 257 (fun i -> Char.chr (i land 0xff)) } ]
  in
  let wire = String.concat "" (List.map Frame.encode frames) in
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Frame.feed d (String.make 1 ch);
      let rec drain () =
        match Frame.next d with
        | Ok (Some f) ->
            got := f :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.fail (Frame.error_to_string e)
      in
      drain ())
    wire;
  let got = List.rev !got in
  Alcotest.(check int) "all frames" (List.length frames) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "frame equal" true (frame_eq a b))
    frames got

let test_read_into_byte_fd () =
  (* a fake fd delivering exactly one byte per read call *)
  let wire =
    Frame.encode { Frame.kind = 5; payload = "payload one" }
    ^ Frame.encode { Frame.kind = 6; payload = "" }
  in
  let pos = ref 0 in
  let read buf _len =
    if !pos >= String.length wire then 0
    else begin
      Bytes.set buf 0 wire.[!pos];
      incr pos;
      1
    end
  in
  let d = Frame.decoder () in
  (match Frame.read_into d ~read with
  | Ok (Some f) -> Alcotest.(check string) "first frame" "payload one" f.Frame.payload
  | _ -> Alcotest.fail "expected first frame");
  (match Frame.read_into d ~read with
  | Ok (Some f) -> Alcotest.(check int) "second frame kind" 6 f.Frame.kind
  | _ -> Alcotest.fail "expected second frame");
  (* end of stream, nothing pending: a clean EOF *)
  match Frame.read_into d ~read with
  | Ok None -> Alcotest.(check int) "clean eof" 0 (Frame.pending_bytes d)
  | _ -> Alcotest.fail "expected clean EOF"

let test_read_into_truncated_stream () =
  let wire = Frame.encode { Frame.kind = 5; payload = "cut short" } in
  let cut = String.sub wire 0 (String.length wire - 3) in
  let pos = ref 0 in
  let read buf len =
    let n = min len (String.length cut - !pos) in
    Bytes.blit_string cut !pos buf 0 n;
    pos := !pos + n;
    n
  in
  let d = Frame.decoder () in
  match Frame.read_into d ~read with
  | Ok None ->
      Alcotest.(check bool) "truncation detected" true (Frame.pending_bytes d > 0)
  | _ -> Alcotest.fail "expected EOF with pending bytes"

(* A signal that lands while [write_all] is blocked on a full socket buffer
   must cost neither the connection nor a byte. The buffer is filled before
   the call, so its first write blocks before sending anything and the
   periodic SIGALRM interrupts it with EINTR; the peer end is read only by
   the signal handler. *)
let test_write_all_retries_eintr () =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock r;
  let sent = Buffer.create (1 lsl 21) in
  let filler = String.make 4096 'f' in
  Unix.set_nonblock w;
  (try
     while true do
       let n = Unix.single_write_substring w filler 0 (String.length filler) in
       Buffer.add_substring sent filler 0 n
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Unix.clear_nonblock w;
  let payload =
    String.init (1 lsl 20) (fun i -> Char.chr (((i * 31) + (i lsr 8)) land 0xff))
  in
  Buffer.add_string sent payload;
  let got = Buffer.create (Buffer.length sent) in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes got chunk 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let ticks = ref 0 in
  let timer every =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every })
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks; drain ())) in
  let mask = Unix.sigprocmask Unix.SIG_UNBLOCK [ Sys.sigalrm ] in
  timer 0.002;
  let written = match Frame.write_all w payload with () -> Ok () | exception e -> Error e in
  timer 0.0;
  ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
  Sys.set_signal Sys.sigalrm old;
  Unix.close w;
  drain ();
  Unix.close r;
  (match written with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_all raised %s" (Printexc.to_string e));
  Alcotest.(check bool) "the timer interrupted the write" true (!ticks > 0);
  Alcotest.(check int) "every byte arrived" (Buffer.length sent) (Buffer.length got);
  Alcotest.(check bool) "in order" true (Buffer.contents sent = Buffer.contents got)

(* --- framing: QCheck ---------------------------------------------------------- *)

let arb_frames_and_chunk =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 5)
           (map
              (fun (kind, payload) -> { Frame.kind; payload })
              (pair (0 -- 255)
                 (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 300)))))
        (1 -- 7))
  in
  QCheck.make gen ~print:(fun (fs, c) ->
      Printf.sprintf "%d frames (lens %s), chunk=%d" (List.length fs)
        (String.concat ","
           (List.map (fun f -> string_of_int (String.length f.Frame.payload)) fs))
        c)

let qcheck_frame_roundtrip =
  QCheck.Test.make ~name:"encode . chunked decode = identity" ~count:300
    arb_frames_and_chunk (fun (frames, chunk) ->
      let wire = String.concat "" (List.map Frame.encode frames) in
      let d = Frame.decoder () in
      let got = ref [] in
      let n = String.length wire in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Frame.feed d ~off:!i ~len wire;
        i := !i + len;
        let rec drain () =
          match Frame.next d with
          | Ok (Some f) ->
              got := f :: !got;
              drain ()
          | Ok None -> ()
          | Error e -> QCheck.Test.fail_report (Frame.error_to_string e)
        in
        drain ()
      done;
      let got = List.rev !got in
      Frame.pending_bytes d = 0
      && List.length got = List.length frames
      && List.for_all2 frame_eq frames got)

(* --- codec -------------------------------------------------------------------- *)

let msg_eq (a : Codec.msg) (b : Codec.msg) = a = b

let roundtrip_msg m =
  let d = Frame.decoder () in
  Frame.feed d (Codec.encode m);
  match Frame.next d with
  | Ok (Some f) -> (
      match Codec.decode f with
      | Ok m' -> m'
      | Error e -> Alcotest.fail ("decode: " ^ e))
  | _ -> Alcotest.fail "expected one complete frame"

let test_codec_roundtrip_all_kinds () =
  let wr =
    { Codec.rq_id = 42;
      rq_utterance = "tweet alice";
      rq_execute = true;
      rq_ticks = 7;
      rq_deadline_ms = Some 12.5 }
  in
  let rs =
    { Codec.rs_id = 42;
      rs_status = "ok";
      rs_program = Some "now => @com.twitter.post(status = \"alice\");";
      rs_nn_tokens = [ "now"; "=>"; "@com.twitter.post" ];
      rs_score = -3.25;
      rs_from_cache = true;
      rs_degraded = false;
      rs_attempts = 2;
      rs_worker = 3;
      rs_notifications = 1;
      rs_side_effects = 0;
      rs_error = None;
      rs_total_ns = 123456.0;
      rs_queue_ns = 789.0 }
  in
  List.iter
    (fun m -> Alcotest.(check bool) "roundtrip" true (msg_eq m (roundtrip_msg m)))
    [ Codec.Hello "test-client";
      Codec.Request wr;
      Codec.Request { wr with Codec.rq_deadline_ms = None };
      Codec.Response rs;
      Codec.Response
        { rs with
          Codec.rs_program = None;
          rs_error = Some "boom";
          rs_nn_tokens = [] };
      Codec.Stats_request;
      Codec.Stats "{\"requests\": 3}";
      Codec.Drain;
      Codec.Bye ]

let test_codec_rejects_trailing_bytes () =
  let m = Codec.Request
      { Codec.rq_id = 1; rq_utterance = "x"; rq_execute = false; rq_ticks = 0;
        rq_deadline_ms = None }
  in
  let d = Frame.decoder () in
  Frame.feed d (Codec.encode m);
  match Frame.next d with
  | Ok (Some f) -> (
      let bloated = { f with Frame.payload = f.Frame.payload ^ "!" } in
      match Codec.decode bloated with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "trailing payload bytes must be rejected")
  | _ -> Alcotest.fail "expected a frame"

let test_codec_rejects_truncated_payload () =
  let m = Codec.Stats "0123456789" in
  let d = Frame.decoder () in
  Frame.feed d (Codec.encode m);
  match Frame.next d with
  | Ok (Some f) -> (
      let cut =
        { f with Frame.payload = String.sub f.Frame.payload 0 3 }
      in
      match Codec.decode cut with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated payload must be rejected")
  | _ -> Alcotest.fail "expected a frame"

let arb_wire_request =
  let gen =
    QCheck.Gen.(
      map
        (fun (id, utt, (execute, ticks, deadline)) ->
          { Codec.rq_id = id;
            rq_utterance = utt;
            rq_execute = execute;
            rq_ticks = ticks;
            rq_deadline_ms = deadline })
        (triple (0 -- 1_000_000)
           (string_size ~gen:(map Char.chr (32 -- 126)) (0 -- 60))
           (triple bool (0 -- 100)
              (opt (map (fun f -> f +. 0.25) (float_bound_exclusive 1000.0))))))
  in
  QCheck.make gen ~print:(fun r -> Printf.sprintf "rq#%d" r.Codec.rq_id)

let qcheck_codec_request_roundtrip =
  QCheck.Test.make ~name:"request payloads roundtrip" ~count:300 arb_wire_request
    (fun wr ->
      let d = Frame.decoder () in
      Frame.feed d (Codec.encode (Codec.Request wr));
      match Frame.next d with
      | Ok (Some f) -> Codec.decode f = Ok (Codec.Request wr)
      | _ -> false)

let test_digest_order_independent () =
  let r i status =
    { Codec.rs_id = i;
      rs_status = status;
      rs_program = Some (Printf.sprintf "prog%d" i);
      rs_nn_tokens = [ "a"; "b" ];
      rs_score = float_of_int i *. 0.5;
      rs_from_cache = i mod 2 = 0;
      rs_degraded = false;
      rs_attempts = 0;
      rs_worker = i;
      rs_notifications = 0;
      rs_side_effects = 0;
      rs_error = None;
      rs_total_ns = float_of_int (i * 1000);
      rs_queue_ns = 0.0 }
  in
  let rs = List.init 9 (fun i -> r i "ok") in
  let shuffled = List.rev rs in
  Alcotest.(check string) "order-independent" (Codec.digest rs) (Codec.digest shuffled);
  (* worker / timing / cache attribution must NOT affect the digest... *)
  let relabeled =
    List.map
      (fun x ->
        { x with
          Codec.rs_worker = 99;
          rs_total_ns = 0.0;
          rs_queue_ns = 5.0;
          rs_from_cache = not x.Codec.rs_from_cache })
      rs
  in
  Alcotest.(check string) "insensitive to worker/timing/cache"
    (Codec.digest rs) (Codec.digest relabeled);
  (* ...but any answer-bearing field must *)
  let broken = List.map (fun x -> { x with Codec.rs_status = "error" }) rs in
  Alcotest.(check bool) "sensitive to status" true
    (Codec.digest rs <> Codec.digest broken)

(* --- batcher under a virtual clock -------------------------------------------- *)

let test_batcher_fifo_and_batch_max () =
  let b = Batcher.create ~capacity:100 ~batch_max:3 () in
  Alcotest.(check (list string)) "empty take" []
    (List.map fst (Batcher.take b ~now_ns:0.0));
  (match Batcher.admit b ~now_ns:10.0 "a" with
  | `Admitted -> ()
  | _ -> Alcotest.fail "admit a");
  ignore (Batcher.admit b ~now_ns:20.0 "b");
  ignore (Batcher.admit b ~now_ns:30.0 "c");
  ignore (Batcher.admit b ~now_ns:40.0 "d");
  let batch = Batcher.take b ~now_ns:100.0 in
  Alcotest.(check (list string)) "fifo order, capped at batch_max" [ "a"; "b"; "c" ]
    (List.map fst batch);
  Alcotest.(check (float 1e-9)) "wait of a" 90.0 (snd (List.hd batch));
  Alcotest.(check int) "the overflow waits" 1 (Batcher.pending b);
  Alcotest.(check (list string)) "next turn" [ "d" ]
    (List.map fst (Batcher.take b ~now_ns:100.0));
  Alcotest.(check int) "emptied" 0 (Batcher.pending b)

let test_batcher_shed_at_capacity () =
  let b = Batcher.create ~capacity:2 ~batch_max:8 () in
  ignore (Batcher.admit b ~now_ns:0.0 1);
  ignore (Batcher.admit b ~now_ns:0.0 2);
  (match Batcher.admit b ~now_ns:0.0 3 with
  | `Shed -> ()
  | _ -> Alcotest.fail "expected shed at capacity");
  let s = Batcher.stats b in
  Alcotest.(check int) "admitted" 2 s.Batcher.admitted;
  Alcotest.(check int) "shed" 1 s.Batcher.shed

let test_batcher_drain_refusal () =
  let b = Batcher.create () in
  ignore (Batcher.admit b ~now_ns:0.0 1);
  Batcher.start_drain b;
  (match Batcher.admit b ~now_ns:1.0 2 with
  | `Draining -> ()
  | _ -> Alcotest.fail "expected draining refusal");
  (* the item admitted before the drain stays queued for take *)
  Alcotest.(check int) "queued through drain" 1 (Batcher.pending b);
  Alcotest.(check int) "only the admitted one" 1
    (List.length (Batcher.take b ~now_ns:2.0));
  Alcotest.(check int) "emptied while draining" 0 (Batcher.pending b)

let test_batcher_histogram () =
  let b = Batcher.create ~capacity:100 ~batch_max:4 () in
  let admit_n n = for i = 1 to n do ignore (Batcher.admit b ~now_ns:0.0 i) done in
  admit_n 4;
  ignore (Batcher.take b ~now_ns:1.0);
  admit_n 4;
  ignore (Batcher.take b ~now_ns:1.0);
  admit_n 2;
  ignore (Batcher.take b ~now_ns:1.0);
  let s = Batcher.stats b in
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 1); (4, 2) ]
    s.Batcher.batch_histogram;
  Alcotest.(check int) "max batch" 4 s.Batcher.max_batch;
  Alcotest.(check int) "batches" 3 s.Batcher.batches

(* --- graceful drain: every admitted request answered exactly once -------------- *)

(* The daemon's drain loop, deterministically: a virtual clock drives the
   batcher, [Server.run_batch] serves each taken batch, and
   drain begins while the queue still holds most of the requests. *)
let drain_exactly_once workers () =
  let server = mk_server ~workers () in
  let b = Batcher.create ~capacity:64 ~batch_max:4 () in
  let n = 11 in
  for i = 0 to n - 1 do
    match Batcher.admit b ~now_ns:(float_of_int i) (request i) with
    | `Admitted -> ()
    | _ -> Alcotest.fail "all requests must be admitted"
  done;
  let answered = Hashtbl.create 16 in
  let dispatch now_ns =
    let batch = Batcher.take b ~now_ns in
    let reqs = List.map fst batch in
    List.iter
      (fun (r : Response.t) ->
        Hashtbl.replace answered r.Response.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt answered r.Response.id)))
      (Server.run_batch server reqs)
  in
  (* one full batch dispatches before shutdown arrives *)
  dispatch 100.0;
  Alcotest.(check int) "mid-batch queue" (n - 4) (Batcher.pending b);
  Batcher.start_drain b;
  (* late arrivals are refused, not queued *)
  (match Batcher.admit b ~now_ns:200.0 (request 999) with
  | `Draining -> ()
  | _ -> Alcotest.fail "post-drain admit must be refused");
  while Batcher.pending b > 0 do
    dispatch 300.0
  done;
  Server.shutdown server;
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "request %d answered exactly once" i)
      1
      (Option.value ~default:0 (Hashtbl.find_opt answered i))
  done;
  Alcotest.(check bool) "refused request never answered" false
    (Hashtbl.mem answered 999);
  let s = Batcher.stats b in
  Alcotest.(check int) "refused count" 1 s.Batcher.refused_draining;
  Alcotest.(check int) "admitted count" n s.Batcher.admitted

(* --- loopback: daemon + client ------------------------------------------------ *)

(* [m] with a [predict] that sleeps [ns] first; its forks sleep too. *)
let rec slow_model ~ns (m : Genie_parser_model.Model.t) =
  { m with
    Genie_parser_model.Model.predict =
      (fun ?scope toks ->
        Unix.sleepf (ns /. 1e9);
        m.Genie_parser_model.Model.predict ?scope toks);
    fork = (fun () -> slow_model ~ns (m.Genie_parser_model.Model.fork ())) }

let with_daemon ?tracer ?tracer_slot ?model ?(workers = 0)
    ?(config = Daemon.default_config) f =
  let server = mk_server ?tracer ?model ~workers () in
  let d = Daemon.create ?tracer ?tracer_slot ~server config in
  let dom = Domain.spawn (fun () -> Daemon.run d) in
  let finish () =
    Daemon.request_drain d;
    Domain.join dom;
    Server.shutdown server
  in
  (match f d with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e);
  (d, server)

let test_loopback_digest_matches_in_process () =
  let n = 24 in
  (* two in three requests execute: their notification and side-effect
     counts are in the digest and must not depend on the worker count *)
  let reqs =
    List.init n (fun i ->
        if i mod 3 = 0 then request i
        else Request.make ~execute:true ~ticks:(1 + (i mod 4)) ~id:i (utterance i))
  in
  (* ground truth: the same requests served in process *)
  let expected =
    let server = mk_server () in
    let resps = Server.run_batch server reqs in
    Server.shutdown server;
    Codec.digest_of_responses resps
  in
  List.iter
    (fun workers ->
      let d, _ =
        with_daemon ~workers (fun d ->
            let c = Client.connect ~port:(Daemon.port d) () in
            (* pipeline everything, then collect *)
            List.iter (fun r -> Client.send_request c r) reqs;
            let got = ref [] in
            for _ = 1 to n do
              got := Client.recv_response c :: !got
            done;
            Alcotest.(check string)
              (Printf.sprintf "digest at workers=%d" workers)
              expected (Codec.digest !got);
            (* every response has a queue-wait measurement *)
            Alcotest.(check bool) "queue waits present" true
              (List.for_all (fun r -> r.Codec.rs_queue_ns >= 0.0) !got);
            Client.close c)
      in
      let s = Daemon.stats d in
      Alcotest.(check int) "requests seen" n s.Daemon.requests;
      Alcotest.(check int) "responses written" n s.Daemon.responses;
      Alcotest.(check bool) "drained" true s.Daemon.drained;
      Alcotest.(check int) "nothing shed" 0 s.Daemon.shed;
      Alcotest.(check int) "nothing dropped" 0 s.Daemon.dropped_responses)
    worker_counts

let test_loopback_drain_mid_stream_exactly_once () =
  List.iter
    (fun workers ->
      let n = 40 in
      let d, _ =
        with_daemon ~workers (fun d ->
            let c = Client.connect ~port:(Daemon.port d) () in
            (* one connection: TCP order guarantees the daemon reads all 40
               requests before the Drain frame, so all are admitted and all
               must be answered during the drain *)
            for i = 0 to n - 1 do
              Client.send_request c (request i)
            done;
            Client.drain c;
            let got = Hashtbl.create 64 in
            let count = ref 0 in
            (try
               while !count < n do
                 let r = Client.recv_response c in
                 Hashtbl.replace got r.Codec.rs_id
                   (1 + Option.value ~default:0 (Hashtbl.find_opt got r.Codec.rs_id));
                 incr count
               done
             with Failure _ -> ());
            Alcotest.(check int)
              (Printf.sprintf "all answered at workers=%d" workers)
              n !count;
            for i = 0 to n - 1 do
              Alcotest.(check int) "exactly once" 1
                (Option.value ~default:0 (Hashtbl.find_opt got i))
            done;
            Client.close c)
      in
      let s = Daemon.stats d in
      Alcotest.(check bool) "drained" true s.Daemon.drained;
      Alcotest.(check int) "responses" n s.Daemon.responses;
      Alcotest.(check int) "dropped" 0 s.Daemon.dropped_responses)
    worker_counts

let test_loopback_stats_and_shed () =
  (* a queue of 2 with pipelined pressure on one connection: the daemon
     must refuse the overflow with overloaded responses, never hang. Each
     decode sleeps 50 ms, so the requests that arrive while the first batch
     is being served find the queue full on the next read. *)
  let n = 10 in
  let d, _ =
    with_daemon
      ~model:(slow_model ~ns:5e7 (Lazy.force model))
      ~config:
        { Daemon.default_config with Daemon.queue_capacity = 2; batch_max = 2 }
      (fun d ->
        let c = Client.connect ~port:(Daemon.port d) () in
        for i = 0 to n - 1 do
          Client.send_request c (request i)
        done;
        let got = ref [] in
        for _ = 1 to n do
          got := Client.recv_response c :: !got
        done;
        let overloaded =
          List.filter (fun r -> r.Codec.rs_status = "overloaded") !got
        in
        Alcotest.(check int) "every request answered" n (List.length !got);
        Alcotest.(check bool) "some shed" true (List.length overloaded > 0);
        List.iter
          (fun r ->
            Alcotest.(check (option string)) "shed reason"
              (Some "admission queue full") r.Codec.rs_error)
          overloaded;
        (* remote stats over the wire *)
        let json = Client.server_stats c in
        Alcotest.(check bool) "stats mention shed" true
          (Genie_util.Tok.contains_substring ~sub:"\"shed\"" json);
        Client.close c)
  in
  let s = Daemon.stats d in
  Alcotest.(check bool) "shed counted" true (s.Daemon.shed > 0);
  Alcotest.(check int) "all requests answered" n (s.Daemon.responses)

(* An idle daemon dispatches a request as soon as it reads it: a client that
   sends each request only after the previous answer sees sub-millisecond
   queue waits, and every batch holds that one request. *)
let test_loopback_idle_dispatches_at_once () =
  let n = 20 in
  let waits = ref [] in
  let d, _ =
    with_daemon (fun d ->
        let c = Client.connect ~port:(Daemon.port d) () in
        for i = 0 to n - 1 do
          waits := (Client.rpc c (request i)).Codec.rs_queue_ns :: !waits
        done;
        Client.close c)
  in
  let median = Stat.percentile (Array.of_list !waits) 50.0 in
  if median >= 1e6 then
    Alcotest.failf "median queue wait %.0f ns, want under 1 ms" median;
  Alcotest.(check (list (pair int int))) "every batch holds one request"
    [ (1, n) ] (Daemon.stats d).Daemon.batch_histogram

let test_loopback_protocol_error_kills_connection () =
  let d, _ =
    with_daemon (fun d ->
        let port = Daemon.port d in
        (* a raw socket sending garbage: the daemon must close it *)
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write_substring fd "NOT A FRAME" 0 11);
        let buf = Bytes.create 16 in
        Alcotest.(check int) "connection closed" 0 (Unix.read fd buf 0 16);
        Unix.close fd;
        (* a healthy client still works afterwards *)
        let c = Client.connect ~port () in
        let r = Client.rpc c (request 0) in
        Alcotest.(check int) "still serving" 0 r.Codec.rs_id;
        Client.close c)
  in
  let s = Daemon.stats d in
  Alcotest.(check int) "protocol error counted" 1 s.Daemon.protocol_errors

let test_loopback_observability () =
  let tracer = Genie_observe.Tracer.create ~seed:5 ~slots:2 () in
  let n = 6 in
  let d, server =
    with_daemon ~tracer ~tracer_slot:1 (fun d ->
        let c = Client.connect ~port:(Daemon.port d) () in
        for i = 0 to n - 1 do
          Client.send_request c (request i)
        done;
        for _ = 1 to n do
          ignore (Client.recv_response c)
        done;
        Client.close c)
  in
  ignore d;
  (* net.* stage counters flow into the server's metrics snapshot *)
  let stages = (Server.metrics_snapshot server).Metrics.stages in
  let get name = Option.value ~default:0 (List.assoc_opt name stages) in
  Alcotest.(check int) "net.accept" 1 (get "net.accept");
  Alcotest.(check int) "net.frame_in counts requests + bye" (n + 1)
    (get "net.frame_in");
  Alcotest.(check int) "net.queue" n (get "net.queue");
  Alcotest.(check bool) "net.batch >= 1" true (get "net.batch" >= 1);
  Alcotest.(check int) "net.frame_out" n (get "net.frame_out");
  (* spans: each batch span parents its requests' queue-wait spans *)
  let spans = Genie_observe.Tracer.spans tracer in
  let batches =
    List.filter (fun s -> s.Genie_observe.Span.name = "net.batch") spans
  in
  let queued =
    List.filter (fun s -> s.Genie_observe.Span.name = "net.queue") spans
  in
  Alcotest.(check bool) "batch spans" true (List.length batches >= 1);
  Alcotest.(check int) "one queue span per request" n (List.length queued);
  List.iter
    (fun (q : Genie_observe.Span.t) ->
      Alcotest.(check bool) "queue span has a batch parent" true
        (match q.Genie_observe.Span.parent with
        | Some p ->
            List.exists (fun b -> b.Genie_observe.Span.id = p) batches
        | None -> false))
    queued

(* Decode time belongs to the request that paid for it: with a model whose
   [predict] takes at least 5 ms, every parse-miss response reports at least
   that much engine time, whatever the worker count. *)
let test_loopback_decode_time_attributed () =
  let decode_ns = 5e6 in
  let model = slow_model ~ns:decode_ns (Lazy.force model) in
  let n = 12 in
  List.iter
    (fun workers ->
      ignore
        (with_daemon ~model ~workers (fun d ->
             let c = Client.connect ~port:(Daemon.port d) () in
             for i = 0 to n - 1 do
               Client.send_request c (request i)
             done;
             let got = List.init n (fun _ -> Client.recv_response c) in
             let misses = List.filter (fun r -> not r.Codec.rs_from_cache) got in
             Alcotest.(check int)
               (Printf.sprintf "one miss per distinct utterance at workers=%d" workers)
               (List.length utterances) (List.length misses);
             List.iter
               (fun r ->
                 if r.Codec.rs_total_ns < decode_ns then
                   Alcotest.failf
                     "workers=%d: miss #%d reports %.0f ns, below the %.0f ns decode"
                     workers r.Codec.rs_id r.Codec.rs_total_ns decode_ns)
               misses;
             Client.close c)))
    [ 0; 2 ]

(* The Stats fields the benchmark harness reads off the wire. *)
let test_stats_json_fields () =
  let d, server =
    with_daemon (fun d ->
        let c = Client.connect ~port:(Daemon.port d) () in
        List.iter (fun i -> ignore (Client.rpc c (request i))) [ 0; 1; 0 ];
        Client.close c)
  in
  let module J = Genie_util.Json_lite in
  let fields =
    match Daemon.stats_json d with
    | J.Obj kvs -> kvs
    | _ -> Alcotest.fail "stats is not an object"
  in
  let field kvs k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "stats lacks %S" k
  in
  let int kvs k =
    match field kvs k with J.Int n -> n | _ -> Alcotest.failf "%S is not an int" k
  in
  (match field fields "model_digest" with
  | J.String s -> Alcotest.(check string) "model_digest" (Server.model_digest server) s
  | _ -> Alcotest.fail "model_digest is not a string");
  let batches = int fields "batches" in
  (match field fields "batch_histogram" with
  | J.List rows ->
      let counted =
        List.fold_left
          (fun acc row ->
            match row with
            | J.List [ J.Int size; J.Int count ] when size > 0 && count > 0 ->
                acc + count
            | _ -> Alcotest.fail "batch_histogram row is not [size, count]")
          0 rows
      in
      Alcotest.(check int) "histogram counts every batch" batches counted
  | _ -> Alcotest.fail "batch_histogram is not a list");
  let srv =
    match field fields "server" with
    | J.Obj kvs -> kvs
    | _ -> Alcotest.fail "server is not an object"
  in
  Alcotest.(check int) "server.cache_misses" 2 (int srv "cache_misses");
  Alcotest.(check int) "server.cache_hits" 1 (int srv "cache_hits")

(* --- server cumulative throughput (the fixed metric) --------------------------- *)

let test_cumulative_throughput () =
  let server = mk_server () in
  let run n = ignore (Server.run_batch server (List.init n request)) in
  run 6;
  let s1 = Server.stats server in
  Alcotest.(check int) "one batch" 1 s1.Server.batches;
  Alcotest.(check int) "last batch size" 6 s1.Server.last_batch_requests;
  run 3;
  let s2 = Server.stats server in
  Alcotest.(check int) "two batches" 2 s2.Server.batches;
  (* throughput_rps only reflects the last batch... *)
  Alcotest.(check int) "last batch size is 3" 3 s2.Server.last_batch_requests;
  (* ...while the cumulative figure covers all 9 requests over all elapsed
     time *)
  Alcotest.(check int) "all requests" 9 s2.Server.requests;
  Alcotest.(check bool) "total time accumulates" true
    (s2.Server.total_seconds >= s1.Server.total_seconds
    && s2.Server.total_seconds > 0.0);
  let expected = float_of_int s2.Server.requests /. s2.Server.total_seconds in
  Alcotest.(check (float 1e-6)) "cumulative_rps = requests / total time"
    expected s2.Server.cumulative_rps;
  Server.shutdown server

let suite =
  [ Alcotest.test_case "frame: simple roundtrip" `Quick test_frame_simple_roundtrip;
    Alcotest.test_case "frame: empty payload" `Quick test_frame_empty_payload;
    Alcotest.test_case "frame: max payload boundary" `Quick test_frame_max_size;
    Alcotest.test_case "frame: garbage prefix rejected" `Quick test_frame_garbage_prefix;
    Alcotest.test_case "frame: garbage rejected before length" `Quick
      test_frame_garbage_rejected_before_length;
    Alcotest.test_case "frame: bad version rejected" `Quick test_frame_bad_version;
    Alcotest.test_case "frame: truncated then completed" `Quick test_frame_truncated;
    Alcotest.test_case "frame: byte-at-a-time reassembly" `Quick
      test_frame_byte_at_a_time;
    Alcotest.test_case "frame: read_into over a 1-byte fd" `Quick
      test_read_into_byte_fd;
    Alcotest.test_case "frame: read_into truncated stream" `Quick
      test_read_into_truncated_stream;
    QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
    Alcotest.test_case "codec: all message kinds roundtrip" `Quick
      test_codec_roundtrip_all_kinds;
    Alcotest.test_case "codec: trailing payload bytes rejected" `Quick
      test_codec_rejects_trailing_bytes;
    Alcotest.test_case "codec: truncated payload rejected" `Quick
      test_codec_rejects_truncated_payload;
    QCheck_alcotest.to_alcotest qcheck_codec_request_roundtrip;
    Alcotest.test_case "codec: digest semantics" `Quick test_digest_order_independent;
    Alcotest.test_case "batcher: fifo and batch_max" `Quick
      test_batcher_fifo_and_batch_max;
    Alcotest.test_case "batcher: shed at capacity" `Quick test_batcher_shed_at_capacity;
    Alcotest.test_case "batcher: drain refusal" `Quick test_batcher_drain_refusal;
    Alcotest.test_case "batcher: size histogram" `Quick test_batcher_histogram;
    Alcotest.test_case "drain: exactly-once, sequential" `Quick
      (drain_exactly_once 0);
    Alcotest.test_case "drain: exactly-once, 2 workers" `Quick
      (drain_exactly_once 2);
    Alcotest.test_case "drain: exactly-once, 4 workers" `Quick
      (drain_exactly_once 4);
    Alcotest.test_case "loopback: digest matches in-process" `Quick
      test_loopback_digest_matches_in_process;
    Alcotest.test_case "loopback: drain mid-stream exactly once" `Quick
      test_loopback_drain_mid_stream_exactly_once;
    Alcotest.test_case "loopback: shed and remote stats" `Quick
      test_loopback_stats_and_shed;
    Alcotest.test_case "loopback: idle daemon dispatches at once" `Quick
      test_loopback_idle_dispatches_at_once;
    Alcotest.test_case "loopback: protocol error kills connection" `Quick
      test_loopback_protocol_error_kills_connection;
    Alcotest.test_case "loopback: probes and spans" `Quick test_loopback_observability;
    Alcotest.test_case "loopback: decode time attributed to its request" `Quick
      test_loopback_decode_time_attributed;
    Alcotest.test_case "stats: fields the benchmark reads" `Quick
      test_stats_json_fields;
    Alcotest.test_case "server: cumulative throughput" `Quick
      test_cumulative_throughput;
    Alcotest.test_case "frame: write_all retries EINTR" `Quick
      test_write_all_retries_eintr ]
