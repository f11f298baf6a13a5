(** Mutable directed flow network stored in a flat arc arena.

    Every call to {!add_arc} creates a forward arc and its residual twin
    (capacity 0, negated cost) at consecutive ids, so [arc_id lxor 1] is
    always the reverse arc. All max-flow / min-cost solvers in this library
    operate on this representation.

    Adjacency is a contiguous CSR view ({!first_out}/{!arc_of}) that
    {!freeze} builds with one O(V+E) counting sort; solver hot loops then
    scan it cache-locally across every solve round. {!add_arc}
    invalidates the view; flow updates preserve it. *)

type t

val create : ?arc_hint:int -> int -> t
(** [create n] makes a network with vertices [0 .. n-1] and no arcs.
    [arc_hint] preallocates the arc arena. *)

val n_vertices : t -> int

val n_arcs : t -> int
(** Number of stored arcs, residual twins included. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> int
(** Adds a forward arc and its residual twin; returns the forward arc id.
    @raise Invalid_argument on negative capacity or out-of-range vertex. *)

val src : t -> int -> int
val dst : t -> int -> int
val capacity : t -> int -> int
val cost : t -> int -> int
val flow : t -> int -> int
(** Flow on a forward arc; on a residual twin this is the negated flow. *)

val residual : t -> int -> int
(** Remaining capacity [capacity - flow] of an arc (twin included). *)

val push : t -> int -> int -> unit
(** [push g arc d] adds [d] units along [arc] and removes them from its twin.
    @raise Invalid_argument if [d] exceeds the residual capacity. *)

val reset_flows : t -> unit
(** Zero all flows, keeping the topology. *)

(** {2 Frozen CSR view} *)

val freeze : t -> unit
(** Build (or refresh) the contiguous CSR adjacency view: one counting
    sort over the arc arena, into unboxed {!Ia.t} buffers owned by the
    graph and reused across freezes — a re-freeze allocates nothing once
    the buffers fit. Idempotent — a no-op when the view is already
    current — so solvers call it unconditionally at entry and only the
    first solve after a topology change pays. Per-vertex arc order is
    insertion order (oldest arc first). *)

val frozen : t -> bool
(** Whether the CSR view is current (built and not invalidated since). *)

val first_out : t -> Ia.t
(** Frozen view: prefix offsets into {!arc_of}; vertex [v]'s out-arcs
    occupy indices [(first_out g).{v} .. (first_out g).{v+1} - 1]. The
    returned vector is live, may be longer than [n_vertices + 1] (only the
    first [n_vertices + 1] cells are meaningful), must not be mutated, and
    is only valid until the next topology change.
    @raise Invalid_argument if the graph is not frozen. *)

val arc_of : t -> Ia.t
(** Frozen view: arc ids grouped by source vertex (see {!first_out}).
    Same aliasing, length and validity caveats.
    @raise Invalid_argument if the graph is not frozen. *)

val rev : int -> int
(** Residual twin id of an arc. *)

val is_forward : int -> bool
(** Whether an arc id denotes a forward (user-created) arc. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** Iterate the ids of arcs leaving a vertex (twins included), in
    insertion order; freezes the graph first. *)

val fold_out : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val out_degree : t -> int -> int

val outflow : t -> int -> int
(** Net flow leaving a vertex on forward arcs minus flow entering it. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump: header (vertex/arc counts and frozen/dirty state
    of the CSR view) followed by one line per forward arc. *)
