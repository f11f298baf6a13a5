(** Dinic's maximum-flow algorithm (level graph + blocking flow), O(V²·E).
    {!Cost_scaling} runs it as its first phase. *)

val run : ?deadline:Deadline.t -> ?max_flow:int -> Graph.t -> src:int -> dst:int -> int
(** Returns the max flow (capped at [max_flow] when given); flows are
    recorded in the graph. Freezes the graph's CSR view at entry.

    The level-graph BFS and blocking-flow DFS tick [deadline] (or the
    ambient {!Deadline}) cooperatively.
    @raise Deadline.Expired on budget exhaustion, leaving the flow routed
    so far on the graph ([Graph.reset_flows] before reusing it). The
    registry converts this to the typed [Error.Deadline_exceeded]. *)
