(** Name → solver backend registry.

    Two min-cost backends are built in: ["mincost"] (successive shortest
    paths) and ["cost-scaling"] (Goldberg–Tarjan, with a Dinic max flow
    as its first phase). Each is wrapped with per-backend obs series
    ([solver.<name>.solves], [solver.<name>.errors],
    [solver.<name>.solve_ns]), so selection and instrumentation stay in
    one place. *)

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
