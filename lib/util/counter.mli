(** Weighted multisets of strings: vocabulary statistics, alignment counts
    and n-gram language models. *)

type t

val create : ?size:int -> unit -> t
(** [size] (default 64) is the expected number of distinct keys. *)

val add : ?weight:float -> t -> string -> unit
(** Adds [weight] (default 1.0) to a key's count. *)

val count : t -> string -> float
(** The accumulated count of a key (0 when absent). *)

val mem : t -> string -> bool
val total : t -> float
val distinct : t -> int
val iter : (string -> float -> unit) -> t -> unit
val to_list : t -> (string * float) list

val top : int -> t -> (string * float) list
(** The [n] highest-count entries, ties broken by key. *)

val prob : ?alpha:float -> ?vocab:int -> t -> string -> float
(** Relative frequency with optional add-[alpha] smoothing over a vocabulary
    of [vocab] keys. *)
