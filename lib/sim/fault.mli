(** Seeded fault-injection harness.

    A single process-wide configuration (installed with {!install}) drives
    every injection point: trace-line corruption, arc cost/capacity
    perturbation in the solver projections, machine revocation between
    replay waves, outright solver-step failures, and a one-shot process
    kill for crash-recovery drills. All draws come from one splitmix64
    {!Rng} stream seeded at {!install}, so a given seed reproduces the
    exact same fault schedule — and because every draw advances the stream
    by exactly one step, the position is a plain counter that a
    crash-recovery journal can record ({!stream_position}) and replay to
    ({!fast_forward}).

    With no configuration installed every probe is a no-op, so the hooks
    cost nothing on production paths. Injection events are counted under
    the [fault.*] {!Obs} counters. *)

type t = {
  seed : int;
  trace_line_corruption : float;  (** per-line probability of mangling *)
  arc_cost_flip : float;          (** per-arc probability of a cost flip *)
  arc_capacity_drop : float;      (** per-arc probability of a capacity drop *)
  machine_revocation : float;     (** per-wave probability of losing a machine *)
  solver_step_failure : float;    (** per-step probability of {!Injected} *)
  solver_failure_budget : int;
      (** Maximum number of solver-step failures actually raised; [-1] is
          unlimited. A finite budget makes recovery tests deterministic:
          budget 1 with rate 1.0 fails exactly the first attempt, and the
          batches after it run unfaulted. *)
  process_kill_after : int;
      (** {!trip_process_kill} raises {!Killed} on probe number
          [process_kill_after] (0 kills at the first probe); [-1] never.
          One-shot: after firing, the countdown disarms so a resumed run
          gets past the same point. *)
  cell_crash : float;  (** per-probe probability a cell task crashes *)
  cell_corrupt : float;
      (** per-probe probability of mirror corruption (a duplicated
          placement event), surfacing as a phase-2 [Desync] *)
  cell_fault_budget : int;
      (** max number of domain-fault firings across all classes;
          [-1] unlimited *)
}

exception Injected of string
(** Raised by {!trip_solver_step} when an injection fires. The scheduler
    treats it like any other typed batch failure: restore and degrade. *)

exception Killed of string
(** Raised by {!trip_process_kill}: the simulated process death. Nothing
    catches this below the run driver — schedulers must not treat it as
    recoverable, and {!Replay.run} lets it escape so the caller can
    exercise journal recovery. *)

val make :
  ?trace_line_corruption:float ->
  ?arc_cost_flip:float ->
  ?arc_capacity_drop:float ->
  ?machine_revocation:float ->
  ?solver_step_failure:float ->
  ?solver_failure_budget:int ->
  ?process_kill_after:int ->
  ?cell_crash:float ->
  ?cell_corrupt:float ->
  ?cell_fault_budget:int ->
  seed:int ->
  unit ->
  t
(** All probabilities default to [0.]; budgets/countdowns default to
    [-1]. *)

val install : t -> unit
(** Make [t] the active configuration (re-seeding the draw stream). *)

val clear : unit -> unit
(** Remove the active configuration; every probe becomes a no-op. *)

val active : unit -> bool

val stream_position : unit -> (int * int * int) option
(** [(draws, failures_left, kill_countdown)] of the installed
    configuration — everything a journal needs to resume the fault
    schedule mid-run. *)

val fast_forward :
  ?kill_countdown:int -> draws:int -> failures_left:int -> unit -> unit
(** Advance the installed stream to a recorded {!stream_position}. Used on
    journal resume, right after {!install} with the original config. The
    kill countdown is per-process: unless [?kill_countdown] re-arms it
    explicitly, the resumed run keeps the countdown of the configuration
    it was installed with — restoring the journaled countdown would make
    recovery re-execute its own crash.
    @raise Invalid_argument when nothing is installed or the stream is
    already past [draws]. *)

val trip_solver_step : string -> unit
(** [trip_solver_step site] raises [Injected site] with probability
    [solver_step_failure] while the failure budget lasts; otherwise
    returns. *)

val trip_process_kill : string -> unit
(** Deterministic process-kill probe (no randomness): counts down
    [process_kill_after] and raises [Killed site] when it hits zero.
    {!Replay} probes it once per committed batch. *)

val corrupt_line : string -> string
(** Mangle a trace line (truncate, garble a char, blank it, or splice in a
    non-numeric token) with probability [trace_line_corruption]; returns
    the line unchanged otherwise. *)

val perturb_arc : cost:int -> capacity:int -> int * int
(** Possibly flipped [(cost, capacity)] for one arc: the cost is negated
    (minus one, so 0 flips too) with probability [arc_cost_flip], the
    capacity dropped to 0 with probability [arc_capacity_drop]. *)

val cell_crash : cell:int -> bool
(** Crash verdict for one cell task, probed at task start: [true] tells
    the prober to raise {!Injected}. Verdicts are drawn from a side
    stream hashed per [(seed, cell, probe index, class)] — deterministic
    per cell whatever the domain interleaving, and consuming {e no} draws
    from the main counted stream, so domain faults never perturb the
    journaled fault schedule. Honors [cell_fault_budget]; counted under
    [fault.cell_crashes]. *)

val cell_corrupt : cell:int -> bool
(** Mirror-corruption verdict for one cell task, probed after its solve:
    [true] tells the coordinator to corrupt the cell's event trace (a
    duplicated placement), which phase 2 then detects as a [Desync].
    Same side-stream discipline as {!cell_crash}; counted under
    [fault.cell_corruptions]. *)

val pick_revocation :
  ?is_offline:(int -> bool) -> n_machines:int -> unit -> int option
(** With probability [machine_revocation], a machine id to revoke, drawn
    uniformly over the machines for which [is_offline] is false — a
    machine already down cannot be revoked again (the old behaviour drew
    any id, double-counting [fault.revoked_machines] on repeats while the
    revocation itself no-opped). Returns [None] without counting when
    every machine is already offline. Exactly two draws are consumed per
    firing probe regardless of the online set, keeping the stream position
    schedule-independent. *)
