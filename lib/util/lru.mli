(** A generic string-keyed LRU cache with hit/miss/eviction counters.

    Backs the serve layer's parse and degraded caches
    ([Genie_serve.Engine], [Genie_serve.Server]) and the runtime's
    compiled-program cache
    ({!Genie_runtime.Compile_cache}): assistant traffic repeats heavily, so
    a small recency cache in front of an expensive stage (aligner decode,
    ThingTalk compilation) answers the common case in O(1). The cache is
    {e not} thread-safe: callers shard by key so each key lives in exactly
    one domain's private cache. *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : capacity:int -> 'a t
(** [capacity <= 0] disables caching (every lookup misses, nothing is
    stored). *)

val find : 'a t -> string -> 'a option
(** On a hit the entry becomes most-recently-used. Updates hit/miss
    counters. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts as most-recently-used, evicting the least-recently-used entry
    when over capacity. Re-adding an existing key replaces its value and
    refreshes its recency. *)

val mem : 'a t -> string -> bool
(** Membership without touching recency or counters. *)

val length : 'a t -> int
val capacity : 'a t -> int
val stats : 'a t -> stats
val clear : 'a t -> unit
(** Drops all entries; keeps the counters. *)

val keys_mru : 'a t -> string list
(** Keys from most- to least-recently-used (for tests and diagnostics). *)
