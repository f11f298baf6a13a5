(** The Aladdin scheduler (Algorithm 1): weighted-priority augmentation
    order over the tiered flow network, the multidimensional nonlinear
    capacity function, and the migration / preemption mechanisms.

    Aladdin never tolerates a constraint violation: a container is either
    placed on a machine that fully admits it, or reported undeployed.

    Batches are transactional: a {!Cluster.mark} is opened before each
    batch, and a recoverable mid-batch failure ({!Aladdin_error.E} or
    {!Fault.Injected}) rolls the cluster back to it: the whole batch is
    reported undeployed ([aladdin.rejected_batches]) and the process keeps
    running. *)

type options = {
  il : bool;  (** isomorphism limiting (§IV.A) *)
  dl : bool;  (** depth limiting (§IV.A) *)
  weight_base : int option;
      (** [Some b] = the evaluation's Aladdin(b) fixed weights; [None] =
          weights derived from the batch via Eq. 5 *)
  migration : bool;
  preemption : bool;
  max_moves : int;     (** migration fan-out bound per container *)
  max_requeues : int;  (** re-queue budget for preempted containers *)
  gang : bool;
      (** all-or-nothing per application: if any of an app's batch
          containers cannot deploy, the whole app's batch is rolled back
          (Medea-style container groups) *)
}

val default_options : options
(** Everything on, computed weights, [max_moves = 8], [max_requeues = 4]. *)

val plain : options
(** No IL, no DL — the "Aladdin" policy of Fig. 12. *)

val with_il : options
(** IL only — "Aladdin+IL". *)

val name_of_options : options -> string

val make : ?options:options -> unit -> Scheduler.t
(** A {!Scheduler.t} usable with {!Replay}. Each [schedule] call builds the
    tiered network for the batch, orders containers by weighted magnitude
    (Eq. 9) and augments one impartible container-flow at a time.

    The scheduler carries one {!Search.t} across batches, bound to the
    last cluster it scheduled (compared physically; another cluster gets a
    fresh search). Each batch {!Search.refresh}es it, which reseeds it
    from the cluster, so placements equal a fresh search per batch
    whoever else placed on the cluster in between. *)

val schedule_raw :
  options -> Cluster.t -> Container.t array -> Scheduler.outcome
(** One bare Algorithm-1 batch on a fresh search: no transaction, no obs.
    For embedders (the cells coordinator's fix-up phase) that provide
    their own recovery envelope around the call. *)

val recoverable : exn -> bool
(** The exception class the batch transaction recovers from:
    {!Aladdin_error.E} and the {!Fault} harness injections. *)

val last_search_stats : unit -> Search.stats option
(** A copy of the search stats of the most recent batch run through {!make}
    or {!schedule_raw} (for the overhead experiments); [None] before any
    call. *)
