(** Degradation-ladder construction: turns rung names into schedulers and
    stacks them under {!Scheduler.with_deadline}.

    Rung vocabulary: any {!Flownet.Registry} backend name (["mincost"],
    ["cost-scaling"]) runs a Firmament stack pinned to that solver, and
    ["gokube"] is the Go-Kube greedy scorer — the natural terminal rung,
    since it never touches a flow network and therefore cannot exhaust a
    solver budget. *)

val default_rungs : string list
(** [["mincost"; "cost-scaling"; "gokube"]]: exact first, then the capped
    approximation, then the solver-free terminal. *)

val rungs_of_string : string -> (string list, string) result
(** The one rung-name parser, behind [ALADDIN_LADDER], [--ladder] and
    {!make}: comma-separated names, trimmed, empty ones dropped; nothing
    left means {!default_rungs}. [Error] names the unknown rungs and lists
    the known ones (every registry backend, then ["gokube"]). *)

val rungs_of_env : unit -> string list option
(** {!rungs_of_string} of [ALADDIN_LADDER]; [None] when it is unset or
    blank.
    @raise Invalid_argument on an unknown rung. *)

val make :
  ?deadline_ms:float ->
  ?shed:bool ->
  ?rungs:string list ->
  ?first:string * Scheduler.t ->
  unit ->
  Scheduler.t
(** The full ladder scheduler: rungs from [?rungs] (default
    {!rungs_of_env}, else {!default_rungs}), optionally preceded by
    [?first] — a custom preferred scheduler (e.g. the Aladdin stack
    itself) that gets the budget's first shot. Deadline, shedding and
    counters as documented on {!Scheduler.with_deadline}.
    @raise Invalid_argument on an unknown rung name (checked as by
    {!rungs_of_string}). *)
