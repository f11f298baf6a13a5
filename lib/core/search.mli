(** The per-container path search of Algorithm 1, with the two search-space
    optimizations of §IV.A.

    Machines are ranked by a packing preference (machines already hosting
    containers, in activation order, then empty machines) — the "shortest
    path" of the SPFA formulation. A machine is admissible when the full
    capacity function accepts the container: vector fit plus the Eq. 8
    blacklist, which {!Cluster.admissible} derives from the apps deployed
    on the machine.

    - {b Isomorphism limiting (IL)}: containers of one application are
      isomorphic, so a (app, machine) admissibility failure is cached and
      siblings skip that machine; an app that failed everywhere fails its
      siblings outright. Caches are invalidated when migration or
      preemption frees resources.
    - {b Depth limiting (DL)}: the flow along T_i is bounded by its demand,
      so searching past the first admissible machine cannot increase it —
      the scan stops there. Without DL the whole tier is scanned and the
      same best-ranked machine selected, so DL changes latency, not
      placement. *)

type t

type stats = {
  mutable paths_explored : int;
      (** admissibility checks performed — the algorithm-overhead proxy *)
  mutable il_skips : int;  (** scans avoided by isomorphism limiting *)
  mutable dl_cuts : int;   (** scans cut short by depth limiting *)
}

val create : ?il:bool -> ?dl:bool -> Flow_graph.t -> t
(** A search over [fg]'s cluster, seeded for [fg]'s batch as {!refresh}
    seeds it. IL and DL default to on. *)

val refresh : t -> Flow_graph.t -> unit
(** Re-point the search at a new batch over the {e same} cluster: the
    per-batch IL caches, stats and parked machines are cleared, and the
    packing preference is re-seeded from the cluster — every machine in
    use, in id order, whoever placed on it. {!create} runs the same
    seeding, so a refreshed search picks exactly what a fresh one would;
    it only saves the allocation.
    @raise Invalid_argument when [fg] was built against another cluster. *)

val find_machine : t -> Container.t -> Machine.id option
(** Best admissible machine under the packing preference, or [None]. Does
    not mutate the cluster. *)

val note_placement : t -> Machine.id -> unit
(** Tell the search a machine gained a container (activation order). *)

val invalidate : t -> unit
(** Drop IL caches after resources were freed (migration/preemption). *)

val stats : t -> stats
(** Counts since the last {!create} or {!refresh}. The record is reused
    across refreshes: copy it to keep one batch's counts. *)
