(** The Aladdin scheduler sharded over multicore scheduling cells.

    The cluster is partitioned into rack-aligned cells (cell count from
    [?cells], default [1]; execution mode from [?mode], default
    [`Auto]); each cell runs a private Aladdin stack on its own mirror
    cluster, on its own domain, and one bare Algorithm-1 fix-up run over
    the whole outer cluster handles the containers no cell could place.
    See {!Cells.Coordinator} for the consistency protocol.

    With [~cells:1] the composite reproduces the unsharded
    {!Aladdin_scheduler.make} placements exactly; with more cells,
    placements are deterministic for a given cell count and batch
    sequence, and identical between [`Sequential] and [`Domains]
    execution (the differential suite's invariants). *)

type t

val create :
  ?cells:int ->
  ?mode:Cells.Coordinator.mode ->
  ?options:Aladdin_scheduler.options ->
  ?fixup:bool ->
  unit ->
  t

val scheduler : t -> Scheduler.t
(** The composite scheduler, wrapped in [cells.*] batch obs. *)

val n_cells : t -> int
val shutdown : t -> unit
val last_breakdown : t -> Cells.Coordinator.breakdown option

val make :
  ?cells:int ->
  ?mode:Cells.Coordinator.mode ->
  ?options:Aladdin_scheduler.options ->
  ?fixup:bool ->
  unit ->
  Scheduler.t
(** {!create} returning just the scheduler (worker domains are parked
    between batches and released at exit). *)
