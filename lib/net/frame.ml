(* Length-prefixed framing: a pure encoder plus an incremental decoder over
   an append-only byte buffer with a consumption cursor. The decoder never
   looks at a header field before all of its bytes have arrived, so feeding
   one byte at a time and feeding the whole stream at once take exactly the
   same decisions. *)

type t = { kind : int; payload : string }

let magic0 = 'G'
let magic1 = 'N'
let version = 1
let header_bytes = 8
let default_max_payload = 8 * 1024 * 1024

type error =
  | Bad_magic of int * int
  | Bad_version of int
  | Oversized of int

let error_to_string = function
  | Bad_magic (a, b) -> Printf.sprintf "bad magic bytes 0x%02x 0x%02x" a b
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds limit" n

let encode { kind; payload } =
  if kind < 0 || kind > 255 then invalid_arg "Frame.encode: kind out of range";
  let len = String.length payload in
  if len > default_max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_bytes + len) in
  Bytes.set b 0 magic0;
  Bytes.set b 1 magic1;
  Bytes.set b 2 (Char.chr version);
  Bytes.set b 3 (Char.chr kind);
  Bytes.set b 4 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 5 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 6 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 7 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* one past the last buffered byte *)
  max_payload : int;
  mutable poisoned : error option;
}

let decoder ?(max_payload = default_max_payload) () =
  { buf = Bytes.create 4096; start = 0; stop = 0; max_payload; poisoned = None }

let pending_bytes d = d.stop - d.start

let ensure_room d extra =
  let used = pending_bytes d in
  if d.start > 0 && (d.start = d.stop || d.start >= Bytes.length d.buf / 2)
  then begin
    (* compact: slide the unconsumed suffix down so the buffer stays small *)
    Bytes.blit d.buf d.start d.buf 0 used;
    d.start <- 0;
    d.stop <- used
  end;
  if d.stop + extra > Bytes.length d.buf then begin
    let cap = ref (max 4096 (Bytes.length d.buf)) in
    while used + extra > !cap do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit d.buf d.start b 0 used;
    d.buf <- b;
    d.start <- 0;
    d.stop <- used
  end

let feed d ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if len < 0 || off < 0 || off + len > String.length s then
    invalid_arg "Frame.feed";
  if len > 0 then begin
    ensure_room d len;
    Bytes.blit_string s off d.buf d.stop len;
    d.stop <- d.stop + len
  end

let byte d i = Char.code (Bytes.get d.buf (d.start + i))

let next d =
  match d.poisoned with
  | Some e -> Error e
  | None ->
      let available = pending_bytes d in
      let fail e =
        d.poisoned <- Some e;
        Error e
      in
      (* validate each header field as soon as its bytes are in, so garbage
         is rejected without waiting for a (bogus) length to be satisfied *)
      if available >= 1 && Bytes.get d.buf d.start <> magic0 then
        fail (Bad_magic (byte d 0, if available >= 2 then byte d 1 else 0))
      else if available >= 2 && Bytes.get d.buf (d.start + 1) <> magic1 then
        fail (Bad_magic (byte d 0, byte d 1))
      else if available >= 3 && byte d 2 <> version then
        fail (Bad_version (byte d 2))
      else if available < header_bytes then Ok None
      else begin
        let len =
          (byte d 4 lsl 24) lor (byte d 5 lsl 16) lor (byte d 6 lsl 8)
          lor byte d 7
        in
        if len > d.max_payload then fail (Oversized len)
        else if available < header_bytes + len then Ok None
        else begin
          let payload = Bytes.sub_string d.buf (d.start + header_bytes) len in
          let kind = byte d 3 in
          d.start <- d.start + header_bytes + len;
          Ok (Some { kind; payload })
        end
      end

let read_into d ~read =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match next d with
    | Error e -> Error e
    | Ok (Some f) -> Ok (Some f)
    | Ok None -> (
        match read chunk (Bytes.length chunk) with
        | 0 -> Ok None  (* end of stream; pending_bytes > 0 means truncated *)
        | n ->
            feed d ~len:n (Bytes.unsafe_to_string chunk);
            go ())
  in
  go ()

(* [Unix.single_write_substring], not [Unix.write]: [Unix.write] loops over
   64 KiB chunks itself and, when a signal interrupts a later chunk, raises
   EINTR without saying how much it already sent, so a retry could resend
   bytes. One chunk per call keeps [off] exact. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.single_write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
