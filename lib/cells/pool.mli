(** A persistent pool of worker domains.

    Workers are spawned once and parked between jobs; {!run} dispatches a
    task array, participates in the draining on the calling domain, and
    blocks until every task finished. The completion handshake is a
    mutex/condition pair, so task results (and any per-domain Obs shard
    writes) happen-before {!run}'s return. *)

type t

val create : workers:int -> t
(** [workers = 0] means no domains at all: {!run} executes tasks inline,
    sequentially, on the calling domain. Pools with workers register an
    [at_exit] {!shutdown} so parked domains never block process exit. *)

val abandoned : t -> bool
(** The pool was poisoned by an interrupted {!run} wait (workers may
    still be mid-task); every further {!run} raises. *)

val run : t -> (unit -> 'a) array -> ('a, exn) result array
(** Run every task (concurrently when workers exist — the caller drains
    alongside them), returning per-task results in order. A raising task
    yields [Error]; {!run} itself never raises on task failure, and a
    raising task does not poison the pool — the same pool is reusable
    for the next job.
    @raise Invalid_argument when called re-entrantly on a busy pool or
    on an {!abandoned} pool. *)

val shutdown : t -> unit
(** Stop and join the workers; idempotent. A worker finishes the task
    it is running but starts no other. *)
