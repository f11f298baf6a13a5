(** Dijkstra over the residual graph with Johnson potentials, for the
    min-cost solver's repeated shortest-path phases (all reduced costs are
    non-negative once potentials are valid). The frontier is the binary
    {!Heap}. *)

type result = {
  dist : Ia.t;    (** reduced-cost distances; max_int if unreachable *)
  parent : Ia.t;
}

type workspace
(** Reusable label vectors + the heap. A run resets only its
    predecessor's footprint, so repeated runs cost O(explored region) each
    instead of O(vertices) — and allocate zero words once the vectors have
    grown to the graph — the win behind the min-cost solver's phase loop. *)

val workspace : unit -> workspace

val run_ws :
  workspace ->
  ?stop_at:int ->
  ?deadline:Deadline.t ->
  Graph.t ->
  src:int ->
  potential:Ia.t ->
  int
(** Allocation-free core: runs the search, leaving labels in the
    workspace, and returns the settled distance of [stop_at] ([max_int]
    when it never settled, including when [stop_at] is [-1]). Same raising
    behaviour as {!run}. *)

val relax_potentials : workspace -> potential:Ia.t -> d_dst:int -> unit
(** Fold the last run's distances into [potential]:
    [pot(v) += dist(v) - d_dst] for every vertex settled below [d_dst].
    Equivalent (up to a uniform shift, which reduced costs ignore) to the
    classic [pot(v) += min(dist(v), d_dst)] full-vector update, but only
    touches the explored region. After it, every residual arc keeps a
    nonnegative reduced cost and arcs on shortest [src]→[stop_at] paths
    have reduced cost exactly 0. *)

val run :
  ?ws:workspace ->
  ?stop_at:int ->
  ?deadline:Deadline.t ->
  Graph.t ->
  src:int ->
  potential:Ia.t ->
  result
(** With [ws], the result vectors are owned by the workspace (they may be
    longer than the vertex count) and are invalidated by the next run that
    uses it.

    With [stop_at], the search returns as soon as that vertex settles:
    its distance and parent are exact, other entries are tentative labels
    (>= the settled distance) or [max_int]. The min-cost solver uses this
    to avoid settling the whole graph per augmentation.
    @raise Invalid_argument when a reduced cost is negative (stale
    potentials).
    @raise Deadline.Expired when [deadline] (or the ambient {!Deadline})
    runs out — ticked once per queue pop; the workspace stays reusable. *)
