type t = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  mutable open_ : bool;
}

let connect ?(host = "127.0.0.1") ?(retries = 50) ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.02);
        go (attempt + 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  let fd = go 0 in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd; decoder = Frame.decoder (); open_ = true }

let fd t = t.fd

let pump t =
  if not t.open_ then failwith "Client: closed";
  let buf = Bytes.create 65536 in
  let n =
    let rec go () =
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  if n = 0 then failwith "Client: connection closed by server"
  else begin
    Frame.feed t.decoder ~len:n (Bytes.unsafe_to_string buf);
    let rec drain acc =
      match Frame.next t.decoder with
      | Ok None -> List.rev acc
      | Error e -> failwith ("Client: bad frame: " ^ Frame.error_to_string e)
      | Ok (Some f) -> (
          match Codec.decode f with
          | Error e -> failwith ("Client: bad payload: " ^ e)
          | Ok msg -> drain (msg :: acc))
    in
    drain []
  end

let send t msg =
  if not t.open_ then failwith "Client: closed";
  Frame.write_all t.fd (Codec.encode msg)

let send_request t req = send t (Codec.Request (Codec.wire_of_request req))

let recv t =
  if not t.open_ then failwith "Client: closed";
  let read b len =
    let rec go () =
      match Unix.read t.fd b 0 len with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  match Frame.read_into t.decoder ~read with
  | Error e -> failwith ("Client: bad frame: " ^ Frame.error_to_string e)
  | Ok None ->
      if Frame.pending_bytes t.decoder > 0 then
        failwith "Client: connection closed mid-frame"
      else None
  | Ok (Some f) -> (
      match Codec.decode f with
      | Error e -> failwith ("Client: bad payload: " ^ e)
      | Ok msg -> Some msg)

let recv_response t =
  match recv t with
  | Some (Codec.Response r) -> r
  | Some _ -> failwith "Client: expected a response frame"
  | None -> failwith "Client: connection closed while awaiting response"

let rpc t req =
  send_request t req;
  recv_response t

let server_stats t =
  send t Codec.Stats_request;
  match recv t with
  | Some (Codec.Stats json) -> json
  | Some _ -> failwith "Client: expected a stats frame"
  | None -> failwith "Client: connection closed while awaiting stats"

let drain t = send t Codec.Drain
let reload t = send t Codec.Reload

let close t =
  if t.open_ then begin
    (try send t Codec.Bye with Failure _ | Unix.Unix_error _ -> ());
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
