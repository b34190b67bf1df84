(** Length-prefixed wire framing for the network serving protocol.

    Every message on a connection is one frame:

    {v
    offset 0  magic   2 bytes  'G' 'N'
    offset 2  version 1 byte   (currently 1)
    offset 3  kind    1 byte   (opaque here; {!Codec} assigns meaning)
    offset 4  length  4 bytes  big-endian payload byte count
    offset 8  payload [length] bytes
    v}

    The codec core is pure: {!encode} builds bytes, and a {!decoder} is fed
    arbitrary byte chunks (however the socket delivered them — including one
    byte at a time) and yields complete frames in order. Nothing here
    touches file descriptors, so the whole protocol layer is testable
    without sockets; {!read_into} and {!write_all} are the two bridges for
    callers that own a socket. *)

type t = { kind : int; payload : string }

val magic0 : char
val magic1 : char
val version : int
val header_bytes : int

val default_max_payload : int
(** 8 MiB — far above any real request or response, low enough that a
    corrupt length prefix cannot make a decoder buffer the universe. *)

type error =
  | Bad_magic of int * int  (** the two bytes seen where magic belonged *)
  | Bad_version of int
  | Oversized of int  (** declared payload length above the decoder's max *)

val error_to_string : error -> string

val encode : t -> string
(** The frame's exact wire bytes. Raises [Invalid_argument] if [kind] is
    outside [0, 255] or the payload exceeds {!default_max_payload}. *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_payload:int -> unit -> decoder
(** A fresh decoder. [max_payload] (default {!default_max_payload}) bounds
    the declared payload length a frame may carry. *)

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Appends raw bytes (by default the whole string) to the decoder's buffer.
    Cheap; no parsing happens until {!next}. *)

val next : decoder -> (t option, error) result
(** [Ok (Some frame)] pops the next complete frame; [Ok None] means the
    buffered bytes are a (possibly empty) prefix of a frame — feed more.
    [Error _] means the stream is corrupt at the current position; the
    decoder is poisoned and every later call returns the same error
    (framing cannot resynchronize after garbage). *)

val pending_bytes : decoder -> int
(** Bytes buffered but not yet consumed by a complete frame — non-zero at
    end-of-stream means the peer sent a truncated frame. *)

val read_into :
  decoder -> read:(bytes -> int -> int) -> (t option, error) result
(** Pulls from [read buf len] (a [Unix.read]-shaped function returning 0 at
    end of stream) until a complete frame, end of stream ([Ok None] with
    {!pending_bytes}[ > 0] indicating truncation), or a framing error. *)

val write_all : Unix.file_descr -> string -> unit
(** Writes every byte of the string, blocking as needed. A signal that
    interrupts the write (EINTR) is retried, never reported; any other
    error raises [Unix.Unix_error] with an unknown prefix already sent. *)
