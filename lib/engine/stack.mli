(** The engine: one declarative description of a whole scheduler stack —
    scheduler kind, solver backend, middleware (deadline ladder, auditor,
    fault injection), cells sharding and the serving front end — built the
    same way no matter which driver asks.

    Every driver (bench, experiments_main, fault_smoke, examples) used to
    hand-assemble its own stack from [ALADDIN_*] knobs; {!of_env} /
    {!of_args} are now the single parser and {!build} the single
    assembler, so a configuration expressible in one harness is
    expressible in all of them. Construction is behaviour-preserving by
    test: an engine-built stack places identically (same seed, same
    placement fingerprint) to the hand-built stacks it replaced. *)

type kind =
  | Aladdin  (** the paper's scheduler, search carried across batches *)
  | Cells  (** [Aladdin.Cells_scheduler] sharded over domains *)
  | Firmament
  | Medea
  | Gokube
  | Ladder  (** the bare degradation ladder, no preferred first rung *)

type serve = {
  serve_cfg : Serve.Runner.config;
  serve_machines : int;  (** cluster size for the serving sweep *)
}

type spec = {
  kind : kind;
  (* Aladdin options *)
  il : bool;
  dl : bool;
  weight_base : int option;  (** [None] = computed weights *)
  (* Firmament options *)
  cost_model : Cost_model.t;
  reschd : int;
  (* Medea weights *)
  medea_a : float;
  medea_b : float;
  medea_c : float;
  (* solver layer *)
  solver : string option;
      (** pin a {!Flownet.Registry} backend; [None] follows
          [ALADDIN_SOLVER] / the registry default *)
  (* cells sharding *)
  cells : int option;  (** [None] = one cell *)
  cells_mode : Cells.Coordinator.mode option;  (** [None] = [`Auto] *)
  (* middleware *)
  deadline_ms : float;  (** > 0 wraps the stack in the deadline ladder *)
  ladder_rungs : string list option;
  audit : bool;  (** wrap outermost in {!Audit.wrap} with repair *)
  (* serving front end *)
  serve : serve option;
}

val default : spec
(** [kind = Aladdin], no middleware, library defaults everywhere. *)

val label : spec -> string
(** Short stable name ("aladdin-il", "cells(4)", ...) used as the
    ladder first-rung label and in reports. *)

val of_name : ?base:spec -> string -> (spec, string) result
(** [base] (default {!default}) with the kind named by the string:
    "aladdin", "aladdin-plain", "aladdin-il", "cells",
    "firmament" (or "firmament-trivial" / "-quincy" / "-octopus"),
    "medea", "gokube", "ladder", or any registry backend name (which
    builds a Firmament stack pinned to that solver, as the serving phase
    and ladder rungs always did). *)

val of_env : ?base:spec -> unit -> spec
(** [base] (default {!default}) overlaid with every [ALADDIN_*] stack
    knob present in the environment: [ALADDIN_SOLVER], [ALADDIN_CELLS]
    (a positive integer), [ALADDIN_CELLS_MODE] (as [--cells-mode]),
    [ALADDIN_DEADLINE_MS] (also arms {!audit}, as the bench always
    audited deadline-bounded runs) and [ALADDIN_LADDER] (via
    {!Ladder.rungs_of_env}). This is the only reader of the cells
    variables. Unset or blank variables leave [base] untouched.
    @raise Invalid_argument on a malformed [ALADDIN_CELLS] or
    [ALADDIN_CELLS_MODE] or an unknown [ALADDIN_LADDER] rung, naming the
    expected values. *)

val of_args : ?base:spec -> string list -> (spec, string) result
(** CLI form of {!of_env}: [--sched NAME --solver NAME --cells N
    --cells-mode auto|domains|sequential --deadline-ms F --ladder r1,r2
    (checked by {!Ladder.rungs_of_string}) --audit --no-audit
    --serve --serve-machines N]. [--serve] attaches
    {!Serve.Runner.config_of_env}. Unknown arguments are an [Error]
    listing the known flags. *)

type built = {
  spec : spec;
  scheduler : Scheduler.t;
  epoch : Obs.epoch;  (** taken at build: scopes counters to this run *)
  shutdown : unit -> unit;  (** release cells domains; no-op otherwise *)
  breakdown : unit -> Cells.Coordinator.breakdown option;
      (** last batch's per-cell timing, [None] unless [kind = Cells] *)
}

val build : spec -> built
(** Assemble the stack: base scheduler by {!kind} (its own middleware
    included, as each [make] always did), then the deadline ladder when
    [deadline_ms > 0] with this stack as preferred first rung, then the
    invariant auditor outermost when [audit].
    @raise Invalid_argument on an unknown solver or ladder rung name. *)

val run_counters : built -> (string * int) list
(** Counters incremented since {!build}, via the built stack's
    {!Obs.epoch} — back-to-back runs in one process don't bleed into
    each other's numbers. *)

val serve_sweep :
  spec -> workload:Workload.t -> Serve.Runner.sweep_result
(** Drive the stack through {!Serve.Runner.sweep} on a cluster of the
    spec's [serve_machines] built from the workload's topology; every
    per-point stack is engine-built and shut down after the sweep.
    @raise Invalid_argument when the spec carries no {!serve} config. *)
