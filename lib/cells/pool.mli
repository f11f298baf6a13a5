(** A persistent pool of worker domains.

    Workers are spawned once and parked between jobs; {!run} dispatches a
    task array, participates in the draining on the calling domain, and
    blocks until every task finished. The completion handshake is a
    mutex/condition pair, so task results (and any per-domain Obs shard
    writes) happen-before {!run}'s return.

    {!run_within} is the supervised variant: the caller does not drain,
    and a job that fails to join within the timeout is abandoned — the
    finished results are harvested, the pool is poisoned ({!abandoned}),
    and the stuck domain is left to finish on its own time (domains
    cannot be killed). A supervisor {!retire}s an abandoned pool and
    builds a fresh one; {!shutdown} still joins, so process exit waits
    for finite stalls rather than silently leaking a running domain. *)

type t

val create : workers:int -> t
(** [workers = 0] means no domains at all: {!run} executes tasks inline,
    sequentially, on the calling domain. Pools with workers register an
    [at_exit] {!shutdown} so parked domains never block process exit. *)

val n_workers : t -> int

val abandoned : t -> bool
(** The pool was poisoned by a timed-out {!run_within} join or an
    interrupted {!run} wait; every further [run]/[run_within] raises. *)

val run : t -> (unit -> 'a) array -> ('a, exn) result array
(** Run every task (concurrently when workers exist — the caller drains
    alongside them), returning per-task results in order. A raising task
    yields [Error]; {!run} itself never raises on task failure, and a
    raising task does not poison the pool — the same pool is reusable
    for the next job.
    @raise Invalid_argument when called re-entrantly on a busy pool or
    on an {!abandoned} pool. *)

val run_within :
  t ->
  timeout_s:float ->
  (unit -> 'a) array ->
  [ `Done of ('a, exn) result array
  | `Timed_out of ('a, exn) result option array ]
(** Like {!run}, but the caller only waits (it never drains, so a hung
    task cannot capture it) and gives up after [timeout_s] seconds of
    wall time. [`Timed_out] carries per-task results for the tasks that
    did finish ([None] = stalled or never started) and leaves the pool
    {!abandoned}. With [workers = 0] there is nothing to time out
    against: tasks run inline and the result is always [`Done].
    @raise Invalid_argument on a busy or abandoned pool. *)

val retire : t -> unit
(** Stop the workers without waiting for them: parked ones exit at once,
    a busy one when its current task returns, and none starts another
    task. For an {!abandoned} pool whose straggler must not block the
    caller; the pool stays abandoned, and a later {!shutdown} joins the
    workers. Idempotent. *)

val shutdown : t -> unit
(** Stop and join the workers; idempotent. Blocks until any straggling
    abandoned task returns (injected stalls are finite). *)
