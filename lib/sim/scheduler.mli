(** The interface every scheduler in this repository implements, and the
    outcome record the evaluation metrics are computed from.

    A scheduler receives a mutable {!Cluster.t} (it may already host
    containers from earlier batches) and a submission batch; it deploys what
    it can by mutating the cluster and reports the rest. *)

type outcome = {
  placed : (Container.id * Machine.id) list;
      (** final placements made for this batch *)
  undeployed : Container.t list;
      (** batch containers left unscheduled — the Fig. 9 quality metric *)
  violations : Violation.t list;
      (** constraint violations the scheduler *tolerated* *)
  migrations : int;  (** container moves performed (Fig. 13(b)) *)
  preemptions : int; (** evictions performed *)
  rounds : int;      (** internal scheduling rounds/iterations used *)
}

type t = {
  name : string;
  schedule : Cluster.t -> Container.t array -> outcome;
}

val empty_outcome : outcome
val merge : outcome -> outcome -> outcome
(** Concatenates placements/violations and sums the counters. *)

val undeployed_count : outcome -> int
val pp_outcome : Format.formatter -> outcome -> unit

val reject_outcome : Container.t array -> outcome
(** The whole batch reported undeployed, nothing else touched. *)

(** {2 Middleware}

    Combinators layering the concerns every scheduler shares, so the
    schedulers themselves only implement placement. Conventional stack,
    innermost first:
    {[
      base |> with_faults ~label |> with_transaction ~prefix ~recoverable
           |> with_obs ~prefix
    ]}
    — the fault probe sits inside the transaction so a tripped batch is
    rolled back and rejected instead of crashing the run. *)

val with_obs : prefix:string -> t -> t
(** Per-batch observability: [<prefix>.batches] / [.containers_placed] /
    [.containers_undeployed] counters and a [<prefix>.batch_ns] latency
    histogram around each [schedule] call. *)

val with_faults : label:string -> t -> t
(** Fault-harness probe at batch entry ({!Fault.trip_solver_step} under
    [label]); a no-op unless a fault config is installed. *)

val faults_recoverable : exn -> bool
(** True exactly for {!Fault.Injected} — the [recoverable] predicate for
    schedulers with no typed error channel of their own. *)

val with_transaction :
  prefix:string -> recoverable:(exn -> bool) -> t -> t
(** Transactional batches: a {!Cluster.mark} is opened before the inner
    scheduler runs; a [recoverable] exception rolls the cluster back to it
    (O(the batch's mutations)) and rejects the batch wholesale
    ([<prefix>.rejected_batches], all containers undeployed). Containers whose machine went offline
    mid-batch cannot be re-placed and are counted in
    [<prefix>.restore_drops]. Anything non-recoverable propagates; the
    mark is released on every exit path. *)

val with_deadline :
  ?deadline_ms:float -> ?shed:bool -> (string * t) list -> t
(** Deadline-bounded degradation ladder over the labelled rung schedulers,
    ordered best-first. Each batch: arm a fresh ambient
    {!Flownet.Deadline} of [deadline_ms] (default [ALADDIN_DEADLINE_MS];
    no deadline → the first rung runs unbounded) and run the rung; on
    {!Flownet.Deadline.Expired} roll back to the batch's
    {!Cluster.mark} (which encloses each rung's own transaction mark) and
    escalate to the next rung ([ladder.escalations],
    [ladder.restore_drops]). When every rung has expired and [shed] is on
    (default), admission control sheds the lowest-priority half of the
    batch ([ladder.shed_containers], reported undeployed) and restarts the
    ladder on the remainder, so every batch completes — under a zero
    budget the outcome degenerates to all-undeployed rather than a hang
    or a crash. The winning rung's [ladder.rung.<label>] counter is
    incremented per batch.

    Rung [recoverable] predicates must NOT treat
    {!Flownet.Deadline.Expired} as recoverable, or their transaction
    middleware would swallow the escalation signal. *)
