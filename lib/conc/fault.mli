(** Seeded, deterministic fault injection for the serving layer.

    Every fault decision is a pure function of the spec's [seed] and the
    request's caller-assigned id (plus the attempt number where relevant) —
    never of wall-clock time, worker identity, or arrival order. A fault
    schedule is therefore exactly reproducible from its spec alone: the same
    spec makes the same requests crash, lag, or vanish whether the server
    runs sequentially or across any number of domains, which is what lets
    the test suite assert exact outcomes rather than probabilistic ones. *)

exception Injected_crash
(** Raised by the serving engine ([Genie_serve.Engine.process]) in place of
    a worker exception. *)

exception Injected_drop
(** Raised by the serving layer's per-attempt drop check, and recorded by a
    {!Pool} [fault_hook], in place of handling a request — simulating a
    channel message that was lost in flight. *)

type spec = {
  seed : int;  (** selects which requests each fault class hits *)
  crash_rate : float;  (** fraction of requests whose decode raises *)
  crash_attempts : int;  (** how many initial attempts of a hit request raise *)
  latency_rate : float;  (** fraction of requests that get extra decode latency *)
  latency_ns : float;  (** the injected latency *)
  sleep : bool;
      (** [true]: actually sleep the injected latency (benchmarks, so
          throughput degrades for real). [false] (default): add it to the
          engine's virtual clock only — timings and deadline checks see it,
          but no wall-clock time is spent (tests stay fast and the deadline
          comparison is exact). *)
  drop_rate : float;  (** fraction of requests whose message is dropped *)
  drop_attempts : int;  (** how many initial attempts of a hit request drop *)
}

type t

val default : spec
(** Seed 0, all rates 0, [crash_attempts] and [drop_attempts] 1,
    [latency_ns] 0, [sleep] false. *)

val none : t
(** Injects nothing; the zero-cost default of every serving entry point. *)

val create : spec -> t
(** Raises [Invalid_argument] if a rate is outside [0, 1] or an attempt
    count is negative. *)

val spec : t -> spec

val active : t -> bool
(** [false] iff the fault injects nothing (all rates zero). *)

val crashes : t -> id:int -> attempt:int -> bool
(** Whether attempt [attempt] (0-based) of request [id] must raise
    {!Injected_crash}: the request is selected with probability
    [crash_rate] and its first [crash_attempts] attempts fail. *)

val drops : t -> id:int -> attempt:int -> bool
(** Same shape as {!crashes} for dropped messages. *)

val latency_ns : t -> id:int -> float
(** Injected decode latency for request [id] (0 when not selected).
    Constant across attempts. *)

val backoff_ns : t -> base_ns:float -> id:int -> attempt:int -> float
(** Retry backoff with deterministic jitter:
    [base_ns * 2^attempt * u] where [u] is uniform in [0.5, 1.0) derived
    from the seed, id and attempt. Usable (and deterministic) on
    {!none} too. *)

val of_string : string -> (t, string) result
(** Parses a comma-separated [key=value] spec, e.g.
    ["seed=7,crash=0.1,crash_attempts=2,latency=0.2,latency_ms=5,drop=0.05,sleep=true"].
    Keys: [seed], [crash], [crash_attempts], [latency], [latency_ms],
    [drop], [drop_attempts], [sleep]. Unknown keys and malformed values are
    errors. *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)
