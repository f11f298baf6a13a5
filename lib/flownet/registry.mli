(** Name → solver backend registry.

    The four built-in backends register themselves at load time:
    ["mincost"] (successive shortest paths),
    ["cost-scaling"], ["dinic"] and ["push-relabel"]. Each registered
    backend is wrapped with per-backend obs series
    ([solver.<name>.solves], [solver.<name>.errors],
    [solver.<name>.solve_ns]) at registration, so selection and
    instrumentation stay in one place. *)

val register : (module Solver_intf.S) -> unit
(** Add (or replace) a backend under its [name]; it is instrumented on
    the way in. *)

val find : string -> (module Solver_intf.S) option
val names : unit -> string list

val default : string
(** ["mincost"] — the backend schedulers use unless told otherwise. *)

val env_name : unit -> string
(** The backend name [ALADDIN_SOLVER] requests (default {!default}),
    without validating it — lookup happens at first use, so an unknown
    name fails at the call site rather than at module load. *)

val of_env : unit -> (module Solver_intf.S)
(** Backend named by [ALADDIN_SOLVER] (default {!default}).
    @raise Invalid_argument on an unknown name, listing the known ones. *)

val name : (module Solver_intf.S) -> string
val caps : (module Solver_intf.S) -> Solver_intf.caps

val solve :
  (module Solver_intf.S) ->
  ?deadline:Deadline.t ->
  ?max_flow:int ->
  Graph.t ->
  src:int ->
  dst:int ->
  (Mincost.stats, Error.t) result
(** [solve backend] — convenience unpacking of the first-class module.
    With [?deadline], budget exhaustion surfaces as
    [Error (Deadline_exceeded _)] (the instrumentation wrapper converts
    backends that raise internally); the partial flow left on the graph is
    not trustworthy — reset or escalate. *)

val default_rungs : string list
(** [["mincost"; "cost-scaling"]] — exact first, then the capped
    approximation, the order [Baselines.Ladder] tries them. Max-flow
    backends are left out: they ignore costs, so a Firmament rung on one
    places nothing, and the ladder accepts any rung that returns. *)

val rungs_of_env : unit -> string list
(** Rung names from [ALADDIN_LADDER] (comma-separated), default
    {!default_rungs}. ["gokube"] is accepted for scheduler-level ladders
    even though it is not a flow solver.
    @raise Invalid_argument on any other unknown name. *)
