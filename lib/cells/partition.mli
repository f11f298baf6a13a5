(** Rack-aligned partition of a {!Topology.t} into scheduling cells.

    Cell [c] owns the contiguous global machine range
    [[fst (bounds t c), snd (bounds t c))]; racks are split into chunks
    whose sizes differ by at most one rack, so every cell is a
    {!Topology.slice} and local machine [j] of cell [c] is global machine
    [fst (bounds t c) + j]. *)

type t

val make : Topology.t -> n_cells:int -> t
(** The requested cell count is clamped to [[1, n_racks]]. *)

val n_cells : t -> int
val topology : t -> Topology.t

val bounds : t -> int -> int * int
(** [(lo, hi)] — cell [c]'s global machine ids are [lo <= m < hi]. *)

val n_machines_of : t -> int -> int
val cell_of_machine : t -> int -> int

val sub_topology : t -> int -> Topology.t
(** The cell's rack-aligned {!Topology.slice}. *)
