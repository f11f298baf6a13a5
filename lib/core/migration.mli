(** The two flow-increasing mechanisms of §III.B (Fig. 3), made
    priority-safe.

    - {b Migration} (Fig. 3(b)): when a container C has no admissible
      machine, look for a machine with enough free resources where only
      anti-affinity blocks C; if every blocking container can move to some
      other admissible machine, move them and free the spot. Migration may
      move containers of any priority — they stay deployed, so no
      constraint is violated.
    - {b Preemption} (Fig. 3(a)): evict strictly-lower-weighted containers
      to make room. The weighted flow (Eq. 5) guarantees the reverse — a
      low-priority container preempting a high-priority one — can never
      increase the objective, so it is never proposed. *)

type move = {
  container : Container.t;
  from_machine : Machine.id;
  to_machine : Machine.id;
}

type migration_plan = { target : Machine.id; moves : move list }

val find_and_apply_migration :
  Cluster.t -> Container.t -> max_moves:int -> migration_plan option
(** Searches online machines in id order; applies the first consistent
    plan (moves executed, the target left free for the caller to place
    into). Every plan is made against the cluster as the call found it
    and applied only once each victim has a destination, so a failed
    call leaves the cluster untouched (no mutation, no {!Cluster.version}
    bump). Ticks the ambient deadline ([migration.plan]) once per machine
    tried. Returns the applied plan. *)

type preemption_plan = {
  target_machine : Machine.id;
  evicted : Container.t list;
}

val find_and_apply_preemption :
  Cluster.t ->
  Weights.t ->
  Container.t ->
  preemption_plan option
(** Evicts the fewest strictly-lower-weighted containers that make the
    container admissible on some online machine (ties: the lowest id).
    Evicted containers are removed from the cluster; the caller re-queues
    them. When no machine has an eviction list, the call returns [None]
    without touching the cluster. Ticks
    the ambient deadline ([preemption.plan]) once per machine tried. *)

val repair_placement :
  ?max_moves:int -> Cluster.t -> Container.t -> Machine.id option
(** Re-placement policy for {!Audit.run}: the first directly admissible
    machine, else the target freed by a bounded migration chain
    ([max_moves], default 4; the chain is applied as a side effect, the
    returned target is left for the caller to place into). [None] when
    neither exists — the auditor then reports the container undeployed. *)
