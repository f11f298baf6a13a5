(** Attribute an undeployed container to the constraint class that blocked
    it, the way Fig. 9(e) reports violation composition:

    - anti-affinity: some machine had the resources but a conflicting app
      deployed there (the Eq. 8 blacklist {!Cluster.admissible} derives)
      rejected the container;
    - priority inversion: capacity exists only under lower-priority
      containers that a globally-optimizing scheduler would have displaced;
    - plain capacity shortage: no violation recorded. *)

val undeployed_violation :
  Cluster.t -> Container.t -> Violation.t option

val violations_of_undeployed :
  Cluster.t -> Container.t list -> Violation.t list
