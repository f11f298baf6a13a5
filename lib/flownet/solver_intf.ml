(** Common interface every registered flow-solver backend implements.

    Every backend is a min-cost solver that honours [?max_flow], and all
    speak the {!Mincost.stats} vocabulary (flow value, total cost,
    iteration count) behind a Result so callers handle solver faults
    uniformly. *)

module type S = sig
  val name : string
  (** Registry key, e.g. ["mincost"]; also the [ALADDIN_SOLVER] value. *)

  val solve :
    ?deadline:Deadline.t ->
    ?max_flow:int ->
    Graph.t ->
    src:int ->
    dst:int ->
    (Mincost.stats, Error.t) result
  (** Route flow from [src] to [dst]; flows are recorded in the graph.
      Freezes the graph's CSR view at entry. [iterations] is a
      backend-specific progress measure (augmenting paths, refine phases;
      0 when the backend does not track one).

      [?deadline] is the cooperative work/wall budget every hot loop
      ticks; its exhaustion comes back as [Error (Deadline_exceeded _)]
      (the registry wrapper guarantees the conversion even for backends
      whose inner algorithm raises {!Deadline.Expired}). The flows routed
      before expiry stay on the graph and may violate conservation —
      degrade, do not trust them. An ambient deadline (armed by scheduler
      middleware rather than passed here) instead propagates as the
      exception so the middleware can escalate. *)
end
