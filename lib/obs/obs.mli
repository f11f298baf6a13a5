(** Solver and scheduler observability: named counters, monotonic timers and
    log-bucketed latency histograms.

    Series are registered in a global registry keyed by name, so independent
    modules can obtain the same series ([counter "x"] is get-or-create) and a
    harness can snapshot everything at once.

    Domain-safe by sharding: registration takes a lock, but the values
    live in per-domain shards ([Domain.DLS]), so [incr] / [add] /
    [observe_ns] are lock-free domain-local array updates — cheap enough
    for solver inner loops, and never lost under concurrent domains.
    Reads merge every shard; a snapshot racing a running domain may miss
    its in-flight tail, and is exact once a happens-before edge to that
    domain exists (a [Domain.join], a pool handshake). *)

type counter

val counter : string -> counter
(** Get or create the counter registered under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC). *)

type histogram

val histogram : string -> histogram
(** Get or create the latency histogram registered under [name]. Buckets are
    powers of two of nanoseconds (64 buckets), so percentile estimates carry
    at most a 2x bucket error while storage stays constant. *)

val observe_ns : histogram -> int64 -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall time in the histogram. *)

type histogram_stats = {
  samples : int;
  sum_ns : float;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  p999_ns : float;
      (** tail percentile for SLO reporting; monotone with p50/p99 by
          construction (same bucket CDF at increasing quantiles) *)
  max_ns : float;
}

val histogram_stats : histogram -> histogram_stats

val counters : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val histograms : unit -> (string * histogram_stats) list
(** All registered histograms with their current stats, sorted by name. *)

type epoch
(** A merged snapshot of every counter at a point in time. Reads
    "since" an epoch subtract that baseline, scoping counters to one
    run (one engine-built stack, one experiment) without zeroing the
    global registry — so back-to-back runs in a single process stop
    contaminating each other's numbers, and concurrent readers keep
    their own baselines. Counters registered after the epoch have a
    zero baseline. *)

val epoch : unit -> epoch
(** Snapshot now. Like any merged read, a snapshot racing a running
    domain may miss its in-flight tail. *)

val count_since : epoch -> counter -> int
(** [count c] minus the counter's value at the epoch. *)

val counters_since : epoch -> (string * int) list
(** Every counter whose value changed since the epoch, with the delta,
    sorted by name. *)
