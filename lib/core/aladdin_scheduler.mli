(** The Aladdin scheduler (Algorithm 1): weighted-priority augmentation
    order over the tiered flow network, the multidimensional nonlinear
    capacity function, and the migration / preemption mechanisms.

    Aladdin never tolerates a constraint violation: a container is either
    placed on a machine that fully admits it, or reported undeployed.

    Batches are transactional: pre-batch placements are snapshotted, and a
    recoverable mid-batch failure ({!Aladdin_error.E} or {!Fault.Injected})
    restores them. A warm scheduler then invalidates its carried state and
    retries the batch cold ([aladdin.fallback_to_cold]); if even the cold
    attempt fails, the whole batch is reported undeployed
    ([aladdin.rejected_batches]) and the process keeps running. *)

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
    (Eq. 9) and augments one impartible container-flow at a time. *)

val schedule_raw :
  options -> Cluster.t -> Container.t array -> Scheduler.outcome
(** One bare Algorithm-1 batch: no transaction, no obs, no warm state.
    For embedders (the cells coordinator's fix-up phase) that provide
    their own recovery envelope around the call. *)

val recoverable : exn -> bool
(** The exception class the batch transaction recovers from:
    {!Aladdin_error.E} and the {!Fault} harness injections. *)

(** {2 Incremental warm start}

    A warm scheduler keeps its {!Search} machinery alive between
    successive batches against the same cluster instead of rebuilding it
    from scratch: the search is refreshed per batch and keeps its
    cross-batch machine equivalence classes. It binds lazily to the first
    cluster it schedules and re-binds (dropping the carried state) if
    pointed at another. Warm start changes batch latency only —
    placements are identical to the from-scratch scheduler, batch for
    batch (enforced by the equivalence regression test). *)

val make_warm : ?options:options -> unit -> Scheduler.t
(** Like {!make} but carrying a private warm search across calls. *)

val last_search_stats : unit -> Search.stats option
(** Stats of the most recent [schedule] call made through {!make} (for the
    overhead experiments); [None] before any call. *)
