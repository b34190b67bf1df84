(** The ThingTalk runtime: executes programs against mock services on a
    virtual clock.

    Semantics per section 2.3: queries always return lists (singletons for
    single-result functions) that are implicitly traversed; each row can feed
    input parameters of later invocations; monitors fire when a query's
    result changes; edge filters fire on false -> true transitions of their
    predicate; timers tick on the virtual clock. *)

open Genie_thingtalk

type record = (string * Value.t) list
(** One result row: output-parameter bindings. *)

type service = {
  generate :
    now:float -> rng:Genie_util.Rng.t -> args:(string * Value.t) list -> record list;
}
(** A mock backing service for one skill function. *)

type env = {
  lib : Schema.Library.t;
  services : (string, service) Hashtbl.t;
  seed : int;  (** seeds every run's RNG *)
}
(** What runs share: the library, the service table and the RNG seed. A run
    never writes to it, so runs on one env are independent of each other. *)

type state = {
  env : env;
  mutable now : float;  (** virtual day count *)
  rng : Genie_util.Rng.t;
  mutable notifications : record list;  (** newest first *)
  mutable side_effects : (Ast.Fn.t * record) list;  (** newest first *)
}
(** One run's mutable state, shared with {!Compile} so that both executors
    build and finish a run the same way. *)

exception Runtime_error of string

val create : ?seed:int -> Schema.Library.t -> env
(** An environment backed by deterministic synthetic data: monitorable
    functions change every few virtual days, non-monitorable ones on every
    call within a run. *)

val register_service : env -> Ast.Fn.t -> service -> unit
(** Overrides the default mock for one function. *)

val start : env -> state
(** A fresh run state: virtual day 0, no notifications or side effects, and
    [Rng.create env.seed], the stream a freshly created env draws from. *)

val results : state -> record list * (Ast.Fn.t * record) list
(** The run's notifications and side effects, oldest first. *)

val eval_predicate : env -> record -> Ast.predicate -> bool
(** Evaluates one predicate against [record] as a run of its own, at virtual
    day 0. *)

val run : ?ticks:int -> ?step:float -> env -> Ast.program -> record list * (Ast.Fn.t * record) list
(** [run ~ticks env p] type-checks [p], then advances a fresh virtual clock
    [ticks] steps in a fresh run state, dispatching stream events through
    the query to the action. Returns this run's notifications and side
    effects only: the result depends on the env's seed and services, [p]
    and [ticks], never on earlier runs. Raises {!Runtime_error} on
    ill-typed programs or unbound parameter passing. *)
