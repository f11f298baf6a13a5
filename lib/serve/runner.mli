(** Open-loop serving runner: arrivals → admission queue → adaptive
    batches → any {!Scheduler.t}, on virtual time.

    The runner lives on a {!Des} whose clock is the serving clock:
    arrival gaps come from the seeded {!Arrivals} process, and each
    batch's service time is the {e measured wall time} of the real
    scheduler call, mapped 1:1 onto virtual seconds. That makes the
    latency distribution an honest open-loop measurement — arrivals keep
    coming while a batch is in flight, the queue grows, and
    arrival→commit latency includes queueing delay — while the whole
    sweep still runs as fast as the scheduler can compute.

    Backpressure is layered: the bounded priority queue sheds / rejects
    at the edge ({!Admission}), and a batch that starts with the queue
    above the watermark is routed through the PR 5 degradation ladder
    ({!Ladder.make} with the serving scheduler as preferred first rung,
    [overload_deadline_ms] per batch) instead of the bare scheduler.
    Injected faults ({!Fault.Injected}) escaping the scheduler fail the
    batch cleanly: its requests count as failed, the run continues.

    With [service_ms > 0] the measured service time is replaced by a
    fixed virtual one, making the entire run a deterministic function of
    the config — the precondition for [?journal] crash consistency: each
    committed batch is appended to a {!Journal} (placement map, fault
    stream position, request count), and a run killed by
    {!Fault.trip_process_kill} (probes ["serve.batch_take"] /
    ["serve.batch_commit"]) resumes by replaying the DES from t0 against
    the same initial cluster — journaled batches skip the scheduler and
    diff the cluster onto their committed placements; admission queue,
    victim bags and rng streams rebuild bit-exact; the first uncommitted
    batch runs live after the fault stream fast-forwards to the last
    commit's recorded position. Resumes land in [serve.resume.resumes],
    [.replayed_batches] and [.replayed_requests];
    [serve.taken_requests] counts every dequeued request, so
    [taken - Σ committed batch sizes] is the in-flight loss window at
    any kill point.

    Per-request arrival→commit latency lands in a per-run
    [serve.latency.<n>] histogram plus the aggregate
    [serve.latency_ns]; counters are [serve.arrivals], [.admitted],
    [.rejected], [.shed], [.placed], [.undeployed], [.failed_requests],
    [.removed], [.noop_removes], [.batches], [.failed_batches] and
    [.overload_batches]. *)

type config = {
  rate : float;  (** arrivals per virtual second; [run] requires > 0 *)
  duration : float;  (** virtual seconds of open-loop arrivals *)
  queue_bound : int;
  watermark : int;
  batch_size : int;
  batch_deadline : float;  (** flush timer, virtual seconds *)
  overload_deadline_ms : float;  (** ladder budget for overload batches *)
  service_ms : float;
      (** [> 0.]: fixed virtual service time per batch (deterministic
          runs, required for [?journal]); [0.]: measured wall time *)
  seed : int;
  modulation : Arrivals.modulation;
}

val config_of_env : unit -> config
(** Defaults overridable through [ALADDIN_SERVE_RATE] (0 = calibrate in
    {!sweep}), [ALADDIN_SERVE_DURATION_S], [ALADDIN_SERVE_QUEUE],
    [ALADDIN_SERVE_WATERMARK], [ALADDIN_SERVE_BATCH],
    [ALADDIN_SERVE_BATCH_DEADLINE_MS],
    [ALADDIN_SERVE_OVERLOAD_DEADLINE_MS], [ALADDIN_SERVE_SERVICE_MS],
    [ALADDIN_SERVE_SEED] and [ALADDIN_SERVE_MODULATION]. *)

type point = {
  rate : float;
  arrivals : int;
  admitted : int;
  rejected : int;
  shed : int;
  placed : int;  (** containers actually deployed *)
  undeployed : int;  (** containers the scheduler declined *)
  failed_requests : int;  (** requests lost to failed batches *)
  removed : int;
  noop_removes : int;  (** remove/scale-down targets already gone *)
  batches : int;
  failed_batches : int;
  overload_batches : int;  (** batches routed through the ladder *)
  mean_batch_fill : float;
  samples : int;  (** committed requests with a recorded latency *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  mean_ms : float;
  queue_depth_max : int;
  queue_depth_mean : float;
  saturated : bool;  (** backpressure engaged: [rejected + shed > 0] *)
  sim_s : float;  (** virtual time at drain *)
  wall_ms : float;
}

val run :
  ?journal:string ->
  config -> sched:Scheduler.t -> cluster:Cluster.t ->
  workload:Workload.t -> point
(** One serving run at [config.rate] until [duration] of arrivals plus
    drain. The cluster may be pre-warmed; fresh containers get ids above
    anything in the workload or cluster. [?journal] is a journal file
    path: committed batches already in it are replayed (resume after a
    kill), live batches are appended — pass the same config and an
    identically initialized cluster as the killed run, and the resumed
    point is fingerprint-identical to an uninterrupted one.
    @raise Invalid_argument when [config.rate <= 0], on an empty
    workload, or when [?journal] is given with [service_ms <= 0]. *)

type sweep_result = {
  base_rate : float;  (** multiplier-1 rate of the sweep *)
  calibrated : bool;  (** base rate calibrated ([config.rate <= 0]) *)
  points : point list;  (** increasing rate, last one saturated *)
}

val sweep :
  ?max_points:int ->
  config ->
  make_sched:(unit -> Scheduler.t) ->
  make_cluster:(unit -> Cluster.t) ->
  workload:Workload.t ->
  sweep_result
(** Load sweep bracketing the saturation knee: when [config.rate <= 0]
    the base rate is calibrated — one full batch per [service_ms] when
    that is fixed, else from a short probe run on a throwaway cluster
    (the median per-request service of five probe batches, so one
    descheduled probe does not skew it). The
    anchor point runs at [base * 0.25] on a fresh cluster/scheduler
    pair; from there rates double until a point saturates — or, if the
    anchor is already saturated, halve until one is underloaded — up to
    [max_points] (default 8) runs, returned in increasing-rate order.
    Each point's latency histogram gets its own [serve.latency.<n>]
    series. *)
