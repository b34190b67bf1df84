(* The load generator: one process, at most nproc persistent connections,
   speaking only the public Client / Codec / Frame protocol. Request [id]
   always travels on connection [id mod n]. *)

module Codec = Genie_net.Codec
module Client = Genie_net.Client

type record = {
  id : int;
  item : Inputs.item;
  execute : bool;
  due : float;  (* when the request was due; latency is timed from here *)
  mutable sent : float;
  mutable received : float;  (* nan until answered *)
  mutable response : Codec.wire_response option;
}

let record ~id ~item ~execute ~due =
  { id; item; execute; due; sent = nan; received = nan; response = None }

let wire r =
  { Codec.rq_id = r.id;
    rq_utterance = r.item.Inputs.utterance;
    rq_execute = r.execute;
    rq_ticks = 3;
    rq_deadline_ms = None }

let ok r =
  match r.response with Some rs -> rs.Codec.rs_status = "ok" | None -> false

(* From the due time to the full response, in ms. A request that was not
   answered [ok] (shed, no parse, error, timeout, or missing) counts as
   infinitely late. *)
let latency_ms r = if ok r then (r.received -. r.due) *. 1e3 else infinity

let send conns r =
  r.sent <- Measure.now ();
  Client.send conns.(r.id mod Array.length conns) (Codec.Request (wire r))

(* Waits up to [timeout] s for inbound frames and files each response with
   its record, stamped with the time its read completed. Returns how many
   records were answered. *)
let poll conns tbl timeout =
  let fds = Array.to_list (Array.map Client.fd conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | ready, _, _ ->
      List.fold_left
        (fun n fd ->
          let c = List.find (fun c -> Client.fd c = fd) (Array.to_list conns) in
          let msgs = Client.pump c in
          let at = Measure.now () in
          List.fold_left
            (fun n msg ->
              match msg with
              | Codec.Response rs -> (
                  match Hashtbl.find_opt tbl rs.Codec.rs_id with
                  | Some r when Option.is_none r.response ->
                      r.received <- at;
                      r.response <- Some rs;
                      n + 1
                  | _ -> n)
              | _ -> n)
            n msgs)
        0 ready

(* Open loop: each request is sent as soon as it is due, whatever the
   daemon is doing. Ends when every request is answered or [grace] s after
   the last due time. *)
let open_loop conns (records : record array) ~grace =
  let n = Array.length records in
  let tbl = Hashtbl.create (2 * n + 1) in
  Array.iter (fun r -> Hashtbl.replace tbl r.id r) records;
  let next = ref 0 and answered = ref 0 in
  let deadline = (if n = 0 then Measure.now () else records.(n - 1).due) +. grace in
  while !answered < n && Measure.now () < deadline do
    let now = Measure.now () in
    while !next < n && records.(!next).due <= now do
      send conns records.(!next);
      incr next
    done;
    let until = if !next < n then records.(!next).due else deadline in
    answered := !answered + poll conns tbl (Float.min 0.05 (until -. Measure.now ()))
  done

(* Closed loop: [window] requests outstanding, each answer releasing the
   next request, until [seconds] have passed; the requests still
   outstanding are then collected. Returns the phase start and the records
   in send order. *)
let closed_loop conns ~window ~seconds ~grace next_record =
  let start = Measure.now () in
  let tbl = Hashtbl.create 4096 in
  let sent = ref [] and outstanding = ref 0 in
  let issue () =
    let r = next_record () in
    Hashtbl.replace tbl r.id r;
    sent := r :: !sent;
    send conns r;
    incr outstanding
  in
  for _ = 1 to window do
    issue ()
  done;
  let stop_at = start +. seconds in
  while !outstanding > 0 && Measure.now () < stop_at +. grace do
    let got = poll conns tbl 0.05 in
    outstanding := !outstanding - got;
    if Measure.now () < stop_at then
      for _ = 1 to got do
        issue ()
      done
  done;
  (start, Array.of_list (List.rev !sent))

(* The daemon's Stats frame, parsed. Responses that straggle in ahead of it
   are skipped. *)
let server_stats c =
  Client.send c Codec.Stats_request;
  let rec go () =
    match Client.recv c with
    | Some (Codec.Stats json) -> Measure.parse_json json
    | Some _ -> go ()
    | None -> failwith "the daemon closed the connection before answering Stats"
  in
  go ()
