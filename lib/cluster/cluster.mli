(** Mutable cluster placement state shared by every scheduler: machines
    and the container→machine map.

    Schedulers mutate a cluster through {!place} / {!remove}; the admission
    check implements the full Aladdin capacity function (vector fit + the
    Eq. 8 blacklist), with an escape hatch for baselines that tolerate
    violations. The blacklist is not stored: it is derived on demand from
    the apps each machine hosts and the constraint set. *)

type t

type denial =
  | No_capacity       (** demand exceeds the machine's free vector *)
  | Blacklisted of Application.id
      (** a conflicting app is deployed there (first one reported) *)

type event =
  | Placed of Container.t * Machine.id * bool
      (** deployed there; the flag is {!place}'s [force] *)
  | Removed of Container.t * Machine.id

val create : Topology.t -> constraints:Constraint_set.t -> t
val topology : t -> Topology.t

val version : t -> int
(** Bumped on every mutation ({!place}, {!remove}, an effective
    {!set_offline}); lets a mirror detect out-of-band changes with one
    integer compare. *)

val set_tracer : t -> (event -> unit) option -> unit
(** Install (or clear) a mutation tracer: called synchronously on every
    {!place} / {!remove}, in order. The cells coordinator uses it to
    replay per-cell mutations onto the outer cluster and back. *)

val constraints : t -> Constraint_set.t
val n_machines : t -> int
val machine : t -> Machine.id -> Machine.t
val machines : t -> Machine.t array

val admissible : t -> Container.t -> Machine.id -> (unit, denial) result
(** Capacity + blacklist check, no mutation. Offline machines admit
    nothing. The container's app is blacklisted on a machine iff a
    conflicting app (itself under anti-within, or an across partner) has
    a container there; the denial names the first such app in
    {!Machine.iter_apps} order. *)

val set_offline : t -> Machine.id -> bool -> unit
(** Quarantine a machine (hardware failure, maintenance). Going offline
    does not evict its containers — use {!drain} for that. *)

val is_offline : t -> Machine.id -> bool

val drain : t -> Machine.id -> Container.t list
(** Remove every container from a machine (in preparation for, or after,
    a failure); returns them for re-scheduling. *)

val place :
  ?force:bool -> t -> Container.t -> Machine.id -> (unit, denial) result
(** Deploy the container. With [force], a blacklist denial is overridden
    (recorded as a violation by {!current_violations}); capacity is never
    overridable. *)

val remove : t -> Container.id -> unit
(** @raise Invalid_argument when the container is not placed. *)

val machine_of : t -> Container.id -> Machine.id option
val container : t -> Container.id -> Container.t option
val n_placed : t -> int
val placements : t -> (Container.id * Machine.id) list

val used_machines : t -> int
val utilizations : t -> float list
(** Utilization of every *used* machine. *)

val current_violations : t -> Violation.t list
(** Anti-affinity violations present in the current placement (each
    offending container counted once per conflicting app on its machine). *)

val reset : t -> unit
(** Remove every placement. *)

(** {2 Marks}

    A mark opens a transaction over the placement state. While any mark is
    open, every {!place} and {!remove} is appended to one mutation log;
    {!rollback} undoes the log back to a mark, so undoing a batch costs
    O(its mutations), not O(cluster). Marks nest (a ladder's mark encloses
    each rung's): each {!mark} is closed by exactly one {!release}, newest
    first, and rolling back to an outer mark also undoes everything logged
    under the inner ones. With no mark open nothing is logged, and the log
    is dropped when the last mark is released. {!set_offline} is not
    logged: a rollback leaves machines offline. *)

type mark

val mark : t -> mark
(** Open a mark at the current end of the log. *)

val rollback : t -> mark -> on_drop:(unit -> unit) -> unit
(** Undo, newest first, every placement and removal logged since the mark,
    which stays open (a later rollback to it is allowed). The undo itself
    is not logged, but it bumps {!version} and reaches the tracer like any
    mutation. A removed container is re-placed where it was with
    [~force:true]; where that fails (its machine went offline since the
    mark) it stays unplaced and [on_drop] is called once for it. Each
    machine's containers are restored as a set: their iteration order may
    differ from the one at the mark.
    @raise Invalid_argument when the mark is not open. *)

val log_length : t -> int
(** Mutations in the log: 0 whenever no mark is open. *)

val release : t -> mark -> unit
(** Close the mark, keeping every mutation since it. Releasing the last
    open mark empties the log.
    @raise Invalid_argument when no mark is open. *)
