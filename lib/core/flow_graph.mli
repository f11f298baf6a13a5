(** The tiered Aladdin flow network (Fig. 4):

    {v s → T_i → A_j → G_k → R_x → N_y → t v}

    Application, cluster-group and rack vertices reduce the edge count from
    O(|T|·|N|) to O(|T| + |A|·|G| + |R| + |N|) (§III.A), which is what makes
    sub-second placement feasible at trace scale. The graph is a search
    structure: capacities stay multidimensional and nonlinear, checked
    against the live {!Cluster.t} during search. *)

type t

val build : Cluster.t -> Container.t array -> t
(** Tiers for one submission batch against the cluster's topology. *)

val cluster : t -> Cluster.t
val batch : t -> Container.t array

val app_ids : t -> Application.id list
(** Distinct apps present in the batch. *)

val container_indices_of_app : t -> Application.id -> int list
(** Batch indices of an app's containers, in batch order. *)

val n_vertices : t -> int
val n_edges : t -> int
val naive_edges : t -> int
(** |T|·|N| — what a flat bipartite network would cost. *)

val to_dot : t -> string
(** Graphviz rendering of the tiered network (containers collapsed into
    their application vertices for readability) — for docs and debugging. *)
