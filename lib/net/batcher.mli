(** Bounded admission queue with micro-batch draining for the network
    front end.

    Requests are admitted into one FIFO as they arrive off the sockets. The
    dispatcher takes them out again in micro-batches of at most
    [batch_max], one {!take} per event-loop turn while anything is queued,
    so a batch holds whatever arrived since the previous one was taken. One
    batch is served by one
    {!Genie_serve.Server.run_batch} call (through the worker pool when
    there is one) while the event loop waits.

    The batcher is a passive, single-owner state machine over an injected
    clock: the daemon drives it from its event loop with real timestamps,
    and the drain tests drive it with a scripted virtual clock, which is how
    "shutdown mid-batch answers every admitted request exactly once" can be
    asserted deterministically. *)

type 'a t
(** ['a] is whatever the owner needs back per request — the daemon uses
    (connection, wire request) pairs. *)

val create : ?capacity:int -> ?batch_max:int -> unit -> 'a t
(** [capacity] (default 1024) bounds the queue: admission beyond it sheds.
    [batch_max] (default 64) caps how many requests one {!take} returns. *)

val admit : 'a t -> now_ns:float -> 'a -> [ `Admitted | `Shed | `Draining ]
(** [`Shed] when the queue is full, [`Draining] once {!start_drain} has been
    called — in both cases the item was NOT queued and the caller must
    answer it (overload response / connection refusal) itself. *)

val pending : 'a t -> int

val take : 'a t -> now_ns:float -> ('a * float) list
(** Dequeues up to [batch_max] items in admission order, each with its
    queue wait in nanoseconds. Records the batch in the size histogram. *)

val start_drain : 'a t -> unit
(** Refuse all later {!admit}s; the items already queued stay for {!take}.
    Idempotent. *)

val draining : 'a t -> bool

type stats = {
  admitted : int;
  shed : int;  (** refused because the queue was full *)
  refused_draining : int;  (** refused because drain had begun *)
  batches : int;
  max_batch : int;
  batch_histogram : (int * int) list;  (** (batch size, count), ascending *)
  queue_wait_ns : float array;  (** per-request waits, admission order *)
}

val stats : 'a t -> stats
(** [queue_wait_ns] keeps the first 65536 waits verbatim (one per taken
    request) — enough for exact percentiles at benchmark scale. *)
