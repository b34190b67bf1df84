(** ThingTalk compilation: lowers typechecked programs to flat predicate
    bytecode plus closure-threaded query/stream/action plans with
    pre-resolved Thingpedia schemas and pre-bound parameter slots.

    Compiled execution is byte-identical to the tree-walking interpreter
    {!Exec}: same results, the same per-run {!Exec.state} (a fresh clock,
    RNG and accumulators per run), same RNG draw
    order for the default mock services, and the same {!Exec.Runtime_error}
    messages raised at the same evaluation points. The differential QCheck
    suite in test/suite_compile.ml and the snapshot goldens under
    test/snapshot/ enforce this contract.

    A compiled program is specialized to the library it was compiled
    against; executing it in an env created from a different library is
    unspecified. Custom services registered with {!Exec.register_service}
    are still honored at execution time — only the default mock fallback is
    pre-resolved. See docs/compilation.md for the bytecode format. *)

open Genie_thingtalk

type t
(** A compiled program: immutable plans plus a per-run stream-state
    factory. One value can be executed many times, including concurrently
    from different domains against their own envs. *)

val compile : Schema.Library.t -> Ast.program -> t
(** Typechecks and lowers. Raises {!Exec.Runtime_error} with the same
    ["ill-typed program: ..."] message {!Exec.run} would produce. *)

val run :
  ?ticks:int -> ?step:float -> Exec.env -> t -> Exec.record list * (Ast.Fn.t * Exec.record) list
(** [run ~ticks env t] advances a fresh virtual clock exactly like
    {!Exec.run} (fresh run and stream state per call, typecheck already
    paid at compile time) and returns this run's notifications and side
    effects. *)

val exec_compiled :
  ?ticks:int ->
  ?step:float ->
  Exec.env ->
  Ast.program ->
  Exec.record list * (Ast.Fn.t * Exec.record) list
(** [compile] against [env]'s library, then {!run}: a drop-in replacement
    for {!Exec.run}. *)

val listing : t -> string
(** Human-readable flat bytecode listing: invocation table with pre-bound
    slots, atom table, external-predicate table, per-predicate instruction
    streams, query plan, stream and action. Stable across runs. *)

val digest : t -> string
(** 16-hex {!Genie_util.Hash64} digest of {!listing} — identifies the
    compiled form, not the execution. *)

val source : t -> Ast.program
(** The program this was compiled from. *)
