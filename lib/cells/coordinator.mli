(** Two-phase coordinator over sharded scheduling cells.

    The cluster is partitioned into rack-aligned cells ({!Partition});
    each cell owns a private mirror {!Cluster.t} over a sliced topology
    and an inner scheduler. A batch is assigned to cells app-by-app,
    solved cell-locally in parallel on a {!Pool} of domains, replayed
    onto the outer cluster, and the containers no cell could place go
    through one global fix-up run that sees every machine.

    The outer cluster remains the single source of truth: phase 1 only
    mutates mirrors, the replay is guarded by an undo log, and
    {!Cluster.version} detects out-of-band outer mutations (revocations,
    audit repairs) and triggers a mirror rebuild. A replay mismatch
    ({!Desync}) unwinds, rebuilds, and retries the batch once.

    With [n_cells = 1] the coordinator degenerates to the inner scheduler
    on a full-cluster mirror and reproduces the unsharded scheduler's
    placements exactly — the anchor case of the differential suite.

    With a {!Supervisor.t} attached, cells become fault domains: phase 1
    survives individual cell failures (bounded per-cell retry with
    jittered backoff on a rebuilt mirror), hung cells are abandoned at
    the join timeout, and repeat offenders are quarantined — their
    machines resliced to neighbouring cells ({!Partition.reslice}) until
    a half-open probe reinstates them. *)

exception Desync of string

type mode = [ `Auto | `Domains | `Sequential ]
(** [`Domains] forces [n_cells - 1] worker domains, [`Sequential] forces
    inline single-domain execution (bit-for-bit deterministic ordering),
    [`Auto] spawns [min (n_cells - 1) (recommended_domain_count - 1)]. *)

val mode_of_env : unit -> mode
(** [ALADDIN_CELLS_MODE] — ["domains"], ["sequential"], anything else
    (or unset) is [`Auto]. *)

type breakdown = {
  cell_ms : float array;  (** per-cell phase-1 wall ms; 0 for idle cells *)
  fixup_ms : float;
  apply_ms : float;       (** replay-onto-outer wall ms *)
  active_cells : int;     (** cells that received a non-empty sub-batch *)
  fixup_containers : int; (** leftovers handed to the fix-up scheduler *)
}

type t

val create :
  ?mode:mode ->
  ?fixup:bool ->
  ?fixup_run:(Cluster.t -> Container.t array -> Scheduler.outcome) ->
  ?supervisor:Supervisor.t ->
  recoverable:(exn -> bool) ->
  n_cells:int ->
  (cell:int -> n_cells:int -> Scheduler.t) ->
  t
(** [create ~recoverable ~n_cells make_cell] builds a coordinator whose
    cell [i] runs [make_cell ~cell:i ~n_cells]. [fixup_run], when given,
    handles phase-2 leftovers on the outer cluster ([~fixup:false]
    disables phase 2; leftovers are then reported undeployed).
    [recoverable] classifies exceptions that reject the batch rather than
    propagate (mirrors are rebuilt either way). [supervisor] turns on
    cell supervision: per-cell retry/quarantine instead of all-or-nothing
    phase 1; a failed cell's sub-batch rides the fix-up (or goes
    undeployed when fix-up is off or [n_cells = 1]). Supervised pools in
    [`Domains]/[`Auto] mode put a worker on every cell so the caller can
    time the join out instead of draining. *)

val supervisor : t -> Supervisor.t option

val schedule : t -> Cluster.t -> Container.t array -> Scheduler.outcome
(** One batch through both phases. The outcome lists final placements in
    batch order against the committed outer cluster; [undeployed] is the
    fix-up's verdict (or the concatenated cell verdicts when fix-up is
    off). Binding is per-outer-cluster: pointing the same coordinator at
    a new cluster rebuilds partition, mirrors, and inner schedulers. *)

val scheduler : t -> name:string -> Scheduler.t
(** {!schedule} wrapped as a plain scheduler, composable with the
    middleware stack. *)

val shutdown : t -> unit
(** Stop and join the worker-domain pool and every pool retired after a
    join timeout (idempotent; also hooked on [at_exit]). *)

val n_cells : t -> int
(** Effective cell count: the partition's once bound, else the request. *)

val last_breakdown : t -> breakdown option
(** Timing/shape of the most recent successful batch. *)
