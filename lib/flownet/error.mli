(** Typed error channel for the flow solvers.

    Solvers that can fail on malformed input or an unexpected solver state
    return [(_, Error.t) result] instead of raising, so callers (the
    schedulers) can degrade gracefully — reject the batch, escalate to
    another backend — rather than crash the process. *)

type t =
  | Negative_cycle of int list
      (** A negative-cost cycle is reachable in the residual graph; the
          payload is the cycle's arc ids (in path order, possibly empty if
          the cycle could not be reconstructed). *)
  | Invalid_potential of string
      (** Johnson potentials violated the nonnegative-reduced-cost
          precondition mid-solve (e.g. the graph was mutated). *)
  | Solver_fault of string
      (** An injected or otherwise unexpected solver-step failure. *)
  | Deadline_exceeded of string
      (** The solve's cooperative {!Deadline} budget ran out; the payload
          names the hot loop that observed the expiry. The flows routed so
          far remain on the graph — callers degrade (retry on a cheaper
          backend, shed work) rather than trust a partial solution. *)

val to_string : t -> string
