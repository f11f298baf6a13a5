(** Cooperative work/wall-clock budgets for the solver hot loops.

    A deadline is a mutable budget armed before a solve (or a whole
    scheduler batch) and ticked cooperatively from every hot loop. When
    the budget is
    exhausted the tick raises {!Expired}; solver entry points with a Result
    API convert their own deadline's expiry into the typed
    [Flownet.Error.Deadline_exceeded], while an {e ambient} (installed)
    deadline propagates as the exception so scheduler middleware can catch
    it and escalate down a degradation ladder.

    Two budget axes compose: a step count (deterministic, used by tests)
    and a wall-clock bound. The wall clock is only sampled every
    {!granularity} ticks, so a tick on the hot path is a couple of integer
    operations. Expiries are counted once per deadline under the
    [deadline.exceeded] {!Obs} counter.

    Tick sites, the [site] an {!Expired} names:
    - solver loops ({!tick}): [spfa.relax], [dijkstra.pop],
      [mincost.augment], [mincost.levels], [mincost.blocking_flow],
      [dinic.levels], [dinic.blocking_flow], [cost_scaling.discharge];
      [cost_scaling.refine] samples the clock ({!check_now}) once per
      refine phase;
    - scheduler loops (ambient): [migration.plan] and [preemption.plan]
      tick per candidate machine in [Aladdin.Migration];
      [aladdin.schedule_batch] and [firmament.round] sample the clock once
      per container and per scheduling round. *)

type t

exception Expired of { site : string; deadline : t }
(** Raised by {!tick} / {!check_now} once the budget is exhausted. [site]
    names the hot loop that observed the expiry. *)

val make : ?steps:int -> ?wall_ms:float -> unit -> t
(** A fresh budget of [steps] cooperative ticks and/or [wall_ms]
    milliseconds from now (monotonic clock). Omitted axes are unbounded;
    [make ()] never expires. *)

val of_env : unit -> float option
(** [ALADDIN_DEADLINE_MS] as a positive float, if set and parseable. *)

val expired : t -> bool
(** Whether the budget was exhausted (sticky once raised). *)

val steps_used : t -> int
(** Cooperative ticks consumed so far. *)

val tick : t -> string -> unit
(** Consume one unit of work. Checks the step budget every call and the
    wall clock every {!granularity} calls (plus the very first, so a
    pre-expired deadline fires immediately).
    @raise Expired when either budget is exhausted. *)

val check_now : t -> string -> unit
(** Like {!tick} but always samples the wall clock — for coarse sites
    (a scheduler round, a refine phase) whose tick frequency is too low
    for the sampling interval to catch a tight wall deadline.
    @raise Expired when either budget is exhausted. *)

val granularity : int
(** Ticks between wall-clock samples (power of two). *)

(** {2 Ambient deadline}

    Middleware arms one deadline for a whole batch; solver loops deep in
    the call tree pick it up without every intermediate signature
    threading it. Mirrors the installed-configuration pattern of the fault
    harness. *)

val ambient : unit -> t option

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run the thunk with the deadline installed as ambient, restoring the
    previous ambient on exit (normal or exceptional) — nests safely. *)

val tick_ambient : string -> unit
(** {!tick} on the ambient deadline; no-op when none is armed. *)

val check_ambient : string -> unit
(** {!check_now} on the ambient deadline; no-op when none is armed. *)

val tick_opt : t option -> string -> unit
(** {!tick} when [Some]; no-op when [None]. For solver loops that resolved
    [explicit-param-or-ambient] once at entry. *)

val resolve : t option -> t option
(** [resolve explicit] is the deadline a solver should honour: the
    explicit one when given, the ambient one otherwise. *)
