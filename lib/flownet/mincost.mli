(** Minimum-cost maximum flow by successive shortest paths, in primal-dual
    (blocking-flow) form.

    The first potentials come from {!Spfa} (arc costs may be negative);
    afterwards each {!Dijkstra} phase is followed by a Dinic-style blocking
    flow over the zero-reduced-cost residual subgraph, which saturates
    every shortest path of the current cost at once — Dijkstra reruns only
    when the path cost strictly increases. This is the solver behind the
    Firmament baseline. *)

type stats = {
  flow : int;        (** total units pushed *)
  cost : int;        (** total cost of the flow *)
  iterations : int;  (** blocking-flow phases run *)
}

val run :
  ?deadline:Deadline.t ->
  ?max_flow:int ->
  Graph.t ->
  src:int ->
  dst:int ->
  (stats, Error.t) result
(** Push up to [max_flow] units (default: unbounded) at minimum total cost.
    Flows are recorded in the graph.

    Returns [Error] — never raises — when the SPFA bootstrap finds a
    negative cycle or its potentials turn out invalid mid-solve
    (counted under [mincost.errors]). Flow pushed before the failure
    remains recorded in the graph; callers recovering from an error should
    [Graph.reset_flows] (or rebuild) before retrying.

    With [?deadline], every hot loop (SPFA relaxation, Dijkstra pop, the
    blocking-flow level build and DFS) ticks the budget cooperatively and
    exhaustion returns the typed [Error Deadline_exceeded]. Without it, an
    ambient {!Deadline} armed by scheduler middleware is ticked instead
    and its expiry propagates as {!Deadline.Expired} for ladder
    escalation. *)
