(* The repository benchmark: what the scheduler stacks [Engine.Stack.build]
   assembles cost their users, end to end, and where that time goes,
   layer by layer. Four workloads are generated from [--seed]; README.md
   beside this file says why each was chosen and how to read the metrics.

     bench.exe --workload steady|cells|saturated|serve --seed N
               [--seconds S] [--trace FILE]

   Without --trace the run reports the end-to-end metrics. With it, the
   run reports the per-layer metrics and writes the recorded spans to FILE
   at exit. Each metric is printed as one "workload/metric value unit"
   line; the last line of stdout is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". Every output is checked,
   untimed; a failed check is named on stderr and the run exits 1 without
   printing a result. *)

(* ---------- clock and statistics ---------- *)

let now () = Int64.to_int (Obs.now_ns ())
let ms_since t0 = float_of_int (now () - t0) /. 1e6
let fi = float_of_int
let fsum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of the raw samples: exact, no buckets. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

exception Check_failed of string

let require name ok = if not ok then raise (Check_failed name)

(* ---------- workloads ---------- *)

type batch_cfg = {
  trace : int -> Workload.t;  (** the submitted trace for a seed *)
  machines : Workload.t -> int;  (** cluster size for the generated trace *)
  batch_size : int;
  spec : Engine.Stack.spec;
}

type serve_cfg = {
  templates : Alibaba.params;
  serve_machines : int;
  runner : Serve.Runner.config;  (** its [rate] is the measuring rate *)
  ladder : float list;  (** rates the traced run probes for the max rate *)
  slo_p99_ms : float;
}

type workload = Batch of batch_cfg | Serve of serve_cfg

(* [share] of the machines the trace's dominant-resource demand fills. *)
let undersized share (trace : Workload.t) =
  let need dim =
    fi (Resource.get (Workload.total_demand trace) dim)
    /. fi (Resource.get trace.Workload.machine_capacity dim)
  in
  let dims = Resource.dims trace.Workload.machine_capacity in
  let demand = List.fold_left Float.max 0. (List.init dims need) in
  int_of_float (Float.ceil (share *. demand))

let workload ~seed name =
  (* The generated trace, in its submission order, on a cluster that ends
     ~84% used: every container places by direct search, so graph build,
     search and the transaction snapshot do the work. *)
  let steady =
    {
      trace =
        (fun seed -> Alibaba.generate { (Alibaba.scaled 0.25) with seed });
      machines = (fun _ -> 2_500);
      batch_size = 100;
      spec = Engine.Stack.default;
    }
  in
  match name with
  | "steady" -> Some (Batch steady)
  | "cells" ->
      (* Same traffic as steady, sharded over four rack-aligned cells, run
         inline in one domain. With a worker domain on a shared two-vCPU
         host the run's time depended on what else held the second vCPU:
         alternated with inline runs, its place rate ranged 0.34 of the
         median against 0.16. *)
      Some
        (Batch
           {
             steady with
             spec =
               {
                 Engine.Stack.default with
                 kind = Engine.Stack.Cells;
                 cells = Some 4;
                 cells_mode = Some `Sequential;
               };
           })
  | "saturated" ->
      (* A cluster with 30% of the machines the trace's demand fills, low
         priority submitted first (the paper's CLP order): once it is full,
         every container that finds no machine runs migration planning,
         and every higher-priority one then preempts, evicting and
         requeueing low-priority ones. The app mix is fixed and the seed
         shuffles the order within each priority class, so that the amount
         of this work is set by the cluster size, not by whether the seed
         draws a large high-priority app. In this order a batch mixes
         priority classes only at a class boundary: with the order only
         shuffled, the scheduler broke the audit's batch-scoped
         priority-inversion rule on one seed in ten. *)
      Some
        (Batch
           {
             trace =
               (fun seed ->
                 let mix =
                   Alibaba.generate { (Alibaba.scaled 0.025) with seed = 42 }
                 in
                 let a = Array.copy mix.Workload.containers in
                 Distribution.shuffle (Rng.create seed) a;
                 Arrival.apply Arrival.Low_priority_first
                   (Workload.with_containers mix a));
             machines = undersized 0.3;
             batch_size = 25;
             spec = Engine.Stack.default;
           })
  | "serve" ->
      (* Open loop: Poisson arrivals at a fixed rate, the default
         place/remove/scale mix, batches of up to 64 flushed after 5 ms,
         service time measured from the real scheduler call. *)
      Some
        (Serve
           {
             templates = Alibaba.scaled 0.1;
             serve_machines = 5_000;
             runner =
               {
                 Serve.Runner.rate = 8_000.;
                 duration = 4.;
                 queue_bound = 1024;
                 watermark = 768;
                 batch_size = 64;
                 batch_deadline = 0.005;
                 overload_deadline_ms = 25.;
                 service_ms = 0.;
                 seed;
                 modulation = Serve.Arrivals.Steady;
               };
             ladder = [ 4_000.; 8_000.; 12_000.; 16_000. ];
             slo_p99_ms = 50.;
           })
  | _ -> None

(* ---------- set-up ---------- *)

type setup = {
  trace : Workload.t;  (** the batch trace, or the serving templates *)
  batches : Container.t array array;  (** empty for serving *)
  cluster : Cluster.t;
  built : Engine.Stack.built;
}

let chunks size a =
  let n = Array.length a in
  Array.init
    ((n + size - 1) / size)
    (fun i -> Array.sub a (i * size) (min size (n - (i * size))))

let make_setup ~seed w =
  let trace, machines, batches, spec =
    match w with
    | Batch c ->
        let trace = c.trace seed in
        ( trace,
          c.machines trace,
          chunks c.batch_size trace.Workload.containers,
          c.spec )
    | Serve c ->
        ( Alibaba.generate { c.templates with Alibaba.seed },
          c.serve_machines,
          [||],
          Engine.Stack.default )
  in
  {
    trace;
    batches;
    cluster =
      Cluster.create
        (Workload.topology trace ~n_machines:machines)
        ~constraints:(Workload.constraint_set trace);
    built = Engine.Stack.build spec;
  }

(* ---------- rounds: the workload's fixed work on a fresh set-up ---------- *)

(* Wall time, batch size and GC cost of every scheduler call. *)
type meter = {
  mutable calls : (float * int) list;  (** (ms, containers), newest first *)
  mutable placements : int;
  mutable minor_words : float;
  mutable major_collections : int;
}

let metered m (s : Scheduler.t) =
  let schedule cluster batch =
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let o = s.Scheduler.schedule cluster batch in
    let ms = ms_since t0 in
    let g1 = Gc.quick_stat () in
    m.calls <- (ms, Array.length batch) :: m.calls;
    m.placements <- m.placements + List.length o.Scheduler.placed;
    m.minor_words <- m.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    m.major_collections <-
      m.major_collections + g1.Gc.major_collections - g0.Gc.major_collections;
    o
  in
  { s with Scheduler.schedule }

type round = {
  meter : meter;
  latency_mean_ms : float;  (** submission (or arrival) to commit *)
  placed_frac : float;  (** placed / placement requests *)
  machines_used_frac : float;
  heap_live_mb : float;
      (** major heap still reachable at the end of the round, with the
          cluster and the stack alive *)
  attempted : int;
  failed : int;
  fingerprint : int;
  point : Serve.Runner.point option;
}

let call_ms r = List.map fst r.meter.calls

let rejected_batches =
  let cs =
    [
      Obs.counter "aladdin.rejected_batches";
      Obs.counter "cells.rejected_batches";
    ]
  in
  fun () -> List.fold_left (fun acc c -> acc + Obs.count c) 0 cs

let finish ~meter ~latency_mean_ms ~placed_frac ~attempted ~failed ?point s =
  require "no anti-affinity violation in the final cluster"
    (Cluster.current_violations s.cluster = []);
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).Gc.live_words in
  {
    meter;
    latency_mean_ms;
    placed_frac;
    machines_used_frac =
      fi (Cluster.used_machines s.cluster) /. fi (Cluster.n_machines s.cluster);
    heap_live_mb = fi live_words *. fi (Sys.word_size / 8) /. 1e6;
    attempted;
    failed;
    fingerprint = Journal.placement_fingerprint (Cluster.placements s.cluster);
    point;
  }

(* Closed loop: each batch is submitted when the previous one commits. *)
let batch_round ?(after_batch = ignore) ~audit sched s =
  let meter =
    { calls = []; placements = 0; minor_words = 0.; major_collections = 0 }
  in
  let sched = metered meter sched in
  let undeployed = Hashtbl.create 64 in
  let failed = ref 0 in
  Array.iter
    (fun batch ->
      let rejected = rejected_batches () in
      let o = sched.Scheduler.schedule s.cluster batch in
      if rejected_batches () > rejected then
        failed := !failed + Array.length batch;
      after_batch ();
      if audit then
        require "audit after every batch is clean"
          (Audit.check s.cluster ~batch ~outcome:o = []);
      List.iter
        (fun (c : Container.t) -> Hashtbl.replace undeployed c.Container.id ())
        o.Scheduler.undeployed)
    s.batches;
  let submitted = Array.length s.trace.Workload.containers in
  require "no container is both placed and undeployed"
    (Hashtbl.fold
       (fun id () ok -> ok && Cluster.machine_of s.cluster id = None)
       undeployed true);
  require "placed + undeployed = submitted"
    (Cluster.n_placed s.cluster + Hashtbl.length undeployed = submitted);
  let latency_sum =
    List.fold_left (fun acc (ms, n) -> acc +. (ms *. fi n)) 0. meter.calls
  in
  finish ~meter
    ~latency_mean_ms:(latency_sum /. fi submitted)
    ~placed_frac:(fi (Cluster.n_placed s.cluster) /. fi submitted)
    ~attempted:submitted ~failed:!failed s

(* Open loop at the configured rate, on virtual time. *)
let serve_round (c : serve_cfg) sched s =
  let meter =
    { calls = []; placements = 0; minor_words = 0.; major_collections = 0 }
  in
  let p =
    Serve.Runner.run c.runner ~sched:(metered meter sched) ~cluster:s.cluster
      ~workload:s.trace
  in
  require "serve: admitted = arrivals - rejected"
    (p.Serve.Runner.admitted = p.arrivals - p.rejected);
  require "serve: no failed batches" (p.failed_batches = 0);
  require "serve: audit of the final cluster is clean"
    (Audit.check s.cluster ~batch:[||] ~outcome:Scheduler.empty_outcome = []);
  finish ~meter ~latency_mean_ms:p.mean_ms
    ~placed_frac:(ratio (fi p.placed) (fi (p.placed + p.undeployed)))
    ~attempted:p.arrivals
    ~failed:(p.shed + p.rejected + p.failed_requests)
    ~point:p s

let engine_round w ~audit s =
  match w with
  | Batch _ -> batch_round ~audit s.built.Engine.Stack.scheduler s
  | Serve c -> serve_round c s.built.Engine.Stack.scheduler s

(* Rounds of the fixed work, [round i setup] for i = 0, 1, ..., each on a
   fresh set-up, until the next one would overrun [budget_ms]; at least
   [min_rounds]. Set-up is timed on its own, after a full major collection
   so that no earlier round's garbage is collected on its clock. It is
   short (1 to 10 ms), so each round times [setups_per_round] set-ups and
   runs on the last, and a run times at least [min_setups]: the median
   then comes from many samples spread over the whole run. *)
let setups_per_round = 4
let min_setups = 20

let rounds ?(min_rounds = 1) ~seed ~budget_ms w round =
  let start = now () in
  let setup_ms = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let t0 = now () in
    let s = make_setup ~seed w in
    setup_ms := ms_since t0 :: !setup_ms;
    s
  in
  let spare () = (timed_setup ()).built.Engine.Stack.shutdown () in
  let rec go acc =
    let t0 = now () in
    for _ = 2 to setups_per_round do
      spare ()
    done;
    let s = timed_setup () in
    let r =
      Fun.protect ~finally:s.built.Engine.Stack.shutdown (fun () ->
          round (List.length acc) s)
    in
    let acc = r :: acc in
    if
      List.length acc >= min_rounds
      && ms_since start +. ms_since t0 > budget_ms
    then List.rev acc
    else go acc
  in
  let rs = go [] in
  while List.length !setup_ms < min_setups do
    spare ()
  done;
  (!setup_ms, rs)

let same_fingerprint rs =
  match rs with
  | [] -> true
  | r :: rest -> List.for_all (fun r' -> r'.fingerprint = r.fingerprint) rest

(* ---------- spans ---------- *)

(* Spans recorded around the calls into each layer, kept in memory and
   written at exit. Five ints per span: name, parent (-1 for a root),
   batch, start and end (monotonic ns). *)
module Spans = struct
  let names =
    [|
      "batch"; "txn.snapshot"; "flow_graph.build"; "search.setup";
      "weights.order"; "search.find"; "cluster.place"; "search.note";
      "migration.plan"; "preemption.plan"; "search.invalidate";
    |]

  let root = 0
  and snapshot = 1
  and graph = 2
  and search_setup = 3
  and order = 4
  and find = 5
  and place = 6
  and note = 7
  and migration = 8
  and preemption = 9
  and invalidate = 10

  type t = {
    mutable n : int;
    mutable a : int array;
    mutable open_ : int;
    mutable batch : int;
  }

  let create () = { n = 0; a = Array.make (5 * 4096) 0; open_ = -1; batch = 0 }

  let enter t name =
    let id = t.n in
    if 5 * (id + 1) > Array.length t.a then begin
      let b = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 b 0 (5 * id);
      t.a <- b
    end;
    let o = 5 * id in
    t.a.(o) <- name;
    t.a.(o + 1) <- t.open_;
    t.a.(o + 2) <- t.batch;
    t.a.(o + 3) <- now ();
    t.open_ <- id;
    t.n <- id + 1;
    id

  let leave t id =
    t.a.((5 * id) + 4) <- now ();
    t.open_ <- t.a.((5 * id) + 1)

  let span t name f =
    let id = enter t name in
    match f () with
    | v ->
        leave t id;
        v
    | exception e ->
        leave t id;
        raise e

  let duration t id = t.a.((5 * id) + 4) - t.a.((5 * id) + 3)

  (* Self time per name, ms: each span's duration less its children's. *)
  let self_ms t =
    let self = Array.make (Array.length names) 0 in
    for id = 0 to t.n - 1 do
      let d = duration t id in
      let name = t.a.(5 * id) and parent = t.a.((5 * id) + 1) in
      self.(name) <- self.(name) + d;
      if parent >= 0 then
        let pname = t.a.(5 * parent) in
        self.(pname) <- self.(pname) - d
    done;
    Array.map (fun ns -> fi ns /. 1e6) self

  let root_ms t =
    let acc = ref [] in
    for id = t.n - 1 downto 0 do
      if t.a.((5 * id) + 1) < 0 then acc := (fi (duration t id) /. 1e6) :: !acc
    done;
    !acc

  let write t path =
    let oc = open_out path in
    for id = 0 to t.n - 1 do
      let o = 5 * id in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"batch\":%d,\"name\":\"%s\",\
         \"start_ns\":%d,\"end_ns\":%d}\n"
        id t.a.(o + 1) t.a.(o + 2) names.(t.a.(o)) t.a.(o + 3) t.a.(o + 4)
    done;
    close_out oc
end

(* ---------- the traced Aladdin replica ---------- *)

type work = {
  mutable batches : int;
  mutable snapshot_entries : int;
  mutable edges : int;
  mutable find_calls : int;
  mutable find_hits : int;
  mutable place_calls : int;
  mutable mig_calls : int;
  mutable mig_ok : int;
  mutable mig_moves : int;
  mutable pre_calls : int;
  mutable pre_ok : int;
  mutable pre_evicted : int;
  mutable paths : int;
  mutable il_skips : int;
  mutable dl_cuts : int;
}

let new_work () =
  {
    batches = 0; snapshot_entries = 0; edges = 0; find_calls = 0;
    find_hits = 0; place_calls = 0; mig_calls = 0; mig_ok = 0; mig_moves = 0;
    pre_calls = 0; pre_ok = 0; pre_evicted = 0; paths = 0; il_skips = 0;
    dl_cuts = 0;
  }

(* [Aladdin_scheduler.schedule_batch] under the engine stack's per-batch
   transaction snapshot, call for call, with a span around every call into
   a layer. The traced run fails unless this replica places exactly as the
   engine stack does, so it cannot describe a different program. *)
let traced_aladdin sp k =
  let open Aladdin in
  let o = Aladdin_scheduler.default_options in
  let span name f = Spans.span sp name f in
  let schedule cluster batch =
    sp.Spans.batch <- k.batches;
    k.batches <- k.batches + 1;
    span Spans.root (fun () ->
        let snap =
          span Spans.snapshot (fun () ->
              List.filter_map
                (fun (cid, mid) ->
                  Option.map (fun c -> (c, mid)) (Cluster.container cluster cid))
                (Cluster.placements cluster))
        in
        let fg = span Spans.graph (fun () -> Flow_graph.build cluster batch) in
        k.edges <- k.edges + Flow_graph.n_edges fg;
        let search =
          span Spans.search_setup (fun () -> Search.create ~il:o.il ~dl:o.dl fg)
        in
        let weights, order =
          span Spans.order (fun () ->
              let capacity = Topology.capacity (Cluster.topology cluster) 0 in
              let w = Weights.compute batch ~capacity in
              let order = Array.copy batch in
              Array.sort
                (fun a b ->
                  match
                    Int.compare
                      (Weights.weighted_magnitude w b)
                      (Weights.weighted_magnitude w a)
                  with
                  | 0 -> Container.compare_by_arrival a b
                  | c -> c)
                order;
              (w, order))
        in
        let queue = Queue.of_seq (Array.to_seq order) in
        let requeues = Hashtbl.create 64 in
        let undeployed = ref [] in
        let migrations = ref 0 and preemptions = ref 0 and rounds = ref 0 in
        let note mid =
          span Spans.note (fun () -> Search.note_placement search mid)
        in
        let place_on (c : Container.t) mid =
          k.place_calls <- k.place_calls + 1;
          (match span Spans.place (fun () -> Cluster.place cluster c mid) with
          | Ok () -> ()
          | Error _ ->
              Aladdin_error.raise_error
                (Aladdin_error.Placement_failed
                   { container = c.Container.id; machine = mid }));
          note mid
        in
        while not (Queue.is_empty queue) do
          incr rounds;
          Flownet.Deadline.check_ambient "aladdin.schedule_batch";
          let c = Queue.pop queue in
          k.find_calls <- k.find_calls + 1;
          match span Spans.find (fun () -> Search.find_machine search c) with
          | Some mid ->
              k.find_hits <- k.find_hits + 1;
              place_on c mid
          | None -> (
              k.mig_calls <- k.mig_calls + 1;
              match
                span Spans.migration (fun () ->
                    Migration.find_and_apply_migration cluster c
                      ~max_moves:o.max_moves)
              with
              | Some plan ->
                  let n = List.length plan.Migration.moves in
                  k.mig_ok <- k.mig_ok + 1;
                  k.mig_moves <- k.mig_moves + n;
                  migrations := !migrations + n;
                  span Spans.invalidate (fun () -> Search.invalidate search);
                  List.iter (fun mv -> note mv.Migration.to_machine) plan.moves;
                  place_on c plan.target
              | None -> (
                  k.pre_calls <- k.pre_calls + 1;
                  match
                    span Spans.preemption (fun () ->
                        Migration.find_and_apply_preemption cluster weights c)
                  with
                  | Some plan ->
                      let evicted = plan.Migration.evicted in
                      k.pre_ok <- k.pre_ok + 1;
                      k.pre_evicted <- k.pre_evicted + List.length evicted;
                      preemptions := !preemptions + List.length evicted;
                      span Spans.invalidate (fun () -> Search.invalidate search);
                      place_on c plan.target_machine;
                      List.iter
                        (fun (ev : Container.t) ->
                          let n =
                            1
                            + Option.value ~default:0
                                (Hashtbl.find_opt requeues ev.Container.id)
                          in
                          Hashtbl.replace requeues ev.Container.id n;
                          if n <= o.max_requeues then Queue.push ev queue
                          else undeployed := ev :: !undeployed)
                        evicted
                  | None -> undeployed := c :: !undeployed))
        done;
        (* Read only now: like the transaction's restore closure, this keeps
           the snapshot reachable for the whole batch, so the collector
           promotes and marks it as it does in the engine stack. *)
        k.snapshot_entries <- k.snapshot_entries + List.length snap;
        let st = Search.stats search in
        k.paths <- k.paths + st.Search.paths_explored;
        k.il_skips <- k.il_skips + st.Search.il_skips;
        k.dl_cuts <- k.dl_cuts + st.Search.dl_cuts;
        {
          Scheduler.placed =
            Array.to_list batch
            |> List.filter_map (fun (c : Container.t) ->
                   Option.map
                     (fun mid -> (c.Container.id, mid))
                     (Cluster.machine_of cluster c.Container.id));
          undeployed = List.rev !undeployed;
          violations = [];
          migrations = !migrations;
          preemptions = !preemptions;
          rounds = !rounds;
        })
  in
  { Scheduler.name = "aladdin (traced)"; schedule }

(* The cells phases of every batch, from the coordinator's own breakdown. *)
type cells_acc = {
  mutable slowest_ms : float;  (** Σ per-batch slowest cell *)
  mutable cell_sum_ms : float;  (** phase 1: the cells run one after another *)
  mutable cell_mean_ms : float;  (** Σ per-batch mean over active cells *)
  mutable apply_ms : float;
  mutable fixup_ms : float;
  mutable fixup_containers : int;
  mutable active_cells : int;
}

(* What a traced round measured inside the scheduler call. *)
type layers = Replica of work | Phases of cells_acc * (string * int) list

(* One round with a root span around every scheduler call. Aladdin stacks
   run through the traced replica; the cells stack runs as built, and its
   phases come from the coordinator's per-batch breakdown. *)
let traced_round w ~audit s =
  let sp = Spans.create () in
  let r, layers =
    match w with
    | Batch { spec = { Engine.Stack.kind = Engine.Stack.Cells; _ }; _ } ->
        let c =
          {
            slowest_ms = 0.; cell_sum_ms = 0.; cell_mean_ms = 0.; apply_ms = 0.;
            fixup_ms = 0.; fixup_containers = 0; active_cells = 0;
          }
        in
        let after_batch () =
          Option.iter
            (fun (b : Cells.Coordinator.breakdown) ->
              let cm = b.cell_ms in
              let active =
                Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 cm
              in
              let total = Array.fold_left ( +. ) 0. cm in
              c.slowest_ms <- c.slowest_ms +. Array.fold_left Float.max 0. cm;
              c.cell_sum_ms <- c.cell_sum_ms +. total;
              c.cell_mean_ms <- c.cell_mean_ms +. ratio total (fi active);
              c.apply_ms <- c.apply_ms +. b.apply_ms;
              c.fixup_ms <- c.fixup_ms +. b.fixup_ms;
              c.fixup_containers <- c.fixup_containers + b.fixup_containers;
              c.active_cells <- c.active_cells + b.active_cells)
            (s.built.Engine.Stack.breakdown ())
        in
        let sched = s.built.Engine.Stack.scheduler in
        let schedule cl b =
          sp.Spans.batch <- sp.Spans.batch + 1;
          Spans.span sp Spans.root (fun () -> sched.Scheduler.schedule cl b)
        in
        let r =
          batch_round ~after_batch ~audit { sched with Scheduler.schedule } s
        in
        (r, Phases (c, Engine.Stack.run_counters s.built))
    | Batch _ ->
        let k = new_work () in
        (batch_round ~audit (traced_aladdin sp k) s, Replica k)
    | Serve c ->
        let k = new_work () in
        (serve_round c (traced_aladdin sp k) s, Replica k)
  in
  (r, sp, layers)

(* Serving batches by measured service time, so a traced serving round
   batches, and places, differently from an untraced one. With a fixed
   service time batching is a function of the seed, and the final
   placements of two schedulers can be compared. *)
let serve_fingerprint ~seed w (c : serve_cfg) sched =
  let s = make_setup ~seed w in
  Fun.protect ~finally:s.built.Engine.Stack.shutdown (fun () ->
      ignore
        (Serve.Runner.run { c.runner with service_ms = 1. } ~sched:(sched s)
           ~cluster:s.cluster ~workload:s.trace);
      Journal.placement_fingerprint (Cluster.placements s.cluster))

(* The highest ladder rate served with nothing shed, rejected or failed
   and a bucketed p99 within the SLO; 0 when none is. *)
let serve_max_rate ~seed w (c : serve_cfg) =
  List.fold_left
    (fun best rate ->
      let s = make_setup ~seed w in
      let p =
        Fun.protect ~finally:s.built.Engine.Stack.shutdown (fun () ->
            Serve.Runner.run { c.runner with rate }
              ~sched:s.built.Engine.Stack.scheduler ~cluster:s.cluster
              ~workload:s.trace)
      in
      if
        p.Serve.Runner.shed + p.rejected + p.failed_requests = 0
        && p.p99_ms <= c.slo_p99_ms
      then Float.max best rate
      else best)
    0. c.ladder

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

(* The tail of a round's batch times: the highest percentile with ten
   batches beyond it. *)
let tail_q r = 1. -. (10. /. fi (List.length r.meter.calls))

let end_to_end ~setup_ms rs =
  let med f = median (List.map f rs) in
  [
    metric "setup_s" "s" (median setup_ms /. 1e3);
    metric "place_rate" "containers/s"
      (med (fun r -> fi r.meter.placements /. (fsum (call_ms r) /. 1e3)));
    metric "batch_p50_ms" "ms" (med (fun r -> percentile 0.5 (call_ms r)));
    metric "batch_tail_ms" "ms"
      ~note:
        (Printf.sprintf "(p%.4g of %d batches a round)"
           (100. *. tail_q (List.hd rs))
           (List.length (List.hd rs).meter.calls))
      (med (fun r -> percentile (tail_q r) (call_ms r)));
    metric "latency_mean_ms" "ms" (med (fun r -> r.latency_mean_ms));
    metric "placed_frac" "fraction" (med (fun r -> r.placed_frac));
    metric "machines_used_frac" "fraction" (med (fun r -> r.machines_used_frac));
    metric "heap_live_mb" "MB" (med (fun r -> r.heap_live_mb));
  ]

let replica_layers = List.init (Array.length Spans.names - 1) (fun i -> i + 1)

(* Every per-layer metric with its unit, in report order. A workload whose
   stack does not run a layer reports 0 for it. A share is the layer's
   self time over the traced round's scheduler wall time. *)
let layer_metrics =
  [ ("trace.batch_ms", "ms"); ("trace.coverage", "fraction");
    ("trace.overhead", "fraction") ]
  @ List.map (fun l -> (Spans.names.(l) ^ "_share", "fraction")) replica_layers
  @ [
      ("flow_graph.edges_per_batch", "count"); ("txn.snapshot_entries", "count");
      ("search.find_calls", "count"); ("search.hit_ratio", "fraction");
      ("search.paths_explored", "count"); ("search.il_skips", "count");
      ("search.dl_cuts", "count"); ("cluster.place_calls", "count");
      ("migration.calls", "count"); ("migration.success_ratio", "fraction");
      ("migration.moves", "count"); ("preemption.calls", "count");
      ("preemption.success_ratio", "fraction"); ("preemption.evicted", "count");
      ("cells.phase1_share", "fraction");
      ("cells.imbalance", "ratio"); ("cells.apply_share", "fraction");
      ("cells.fixup_share", "fraction"); ("cells.coord_share", "fraction");
      ("cells.fixup_containers", "count"); ("cells.active_cells", "count");
      ("cells.desyncs", "count"); ("cells.batch_retries", "count");
      ("serve.utilization", "fraction"); ("serve.wait_share", "fraction");
      ("serve.batch_fill", "count"); ("serve.queue_depth_mean", "count");
      ("serve.overload_batches", "count"); ("serve.shed", "count");
      ("serve.max_rate", "req/s");
      ("gc.minor_words_per_container", "count");
      ("gc.major_collections", "count");
    ]

(* Values of the layers a traced round ran, and the time they cover. *)
let layer_values sp ~traced_total = function
  | Replica k ->
      let self = Spans.self_ms sp in
      let per_batch x = ratio (fi x) (fi k.batches) in
      ( List.map
          (fun l -> (Spans.names.(l) ^ "_share", ratio self.(l) traced_total))
          replica_layers
        @ [
            ("flow_graph.edges_per_batch", per_batch k.edges);
            ("txn.snapshot_entries", per_batch k.snapshot_entries);
            ("search.find_calls", fi k.find_calls);
            ("search.hit_ratio", ratio (fi k.find_hits) (fi k.find_calls));
            ("search.paths_explored", fi k.paths);
            ("search.il_skips", fi k.il_skips);
            ("search.dl_cuts", fi k.dl_cuts);
            ("cluster.place_calls", fi k.place_calls);
            ("migration.calls", fi k.mig_calls);
            ("migration.success_ratio", ratio (fi k.mig_ok) (fi k.mig_calls));
            ("migration.moves", fi k.mig_moves);
            ("preemption.calls", fi k.pre_calls);
            ("preemption.success_ratio", ratio (fi k.pre_ok) (fi k.pre_calls));
            ("preemption.evicted", fi k.pre_evicted);
          ],
        traced_total -. self.(Spans.root) )
  | Phases (c, counters) ->
      let phases = c.cell_sum_ms +. c.apply_ms +. c.fixup_ms in
      let counter n =
        fi (Option.value ~default:0 (List.assoc_opt n counters))
      in
      let share x = ratio x traced_total in
      ( [
          ("cells.phase1_share", share c.cell_sum_ms);
          ("cells.imbalance", ratio c.slowest_ms c.cell_mean_ms);
          ("cells.apply_share", share c.apply_ms);
          ("cells.fixup_share", share c.fixup_ms);
          ("cells.coord_share", share (traced_total -. phases));
          ("cells.fixup_containers", fi c.fixup_containers);
          ("cells.active_cells",
            ratio (fi c.active_cells) (fi (List.length (Spans.root_ms sp))));
          ("cells.desyncs", counter "cells.desyncs");
          ("cells.batch_retries", counter "cells.batch_retries");
        ],
        phases )

(* Queueing against service on the untraced serving rounds. *)
let serve_values base ~max_rate =
  let med f =
    median
      (List.filter_map
         (fun r -> Option.map (fun (p : Serve.Runner.point) -> f r p) r.point)
         base)
  in
  let service_mean r =
    ratio (fsum (call_ms r)) (fi (List.length r.meter.calls))
  in
  [
    ("serve.utilization",
      med (fun r p -> ratio (fsum (call_ms r) /. 1e3) p.sim_s));
    ("serve.wait_share",
      med (fun r p -> ratio (p.mean_ms -. service_mean r) p.mean_ms));
    ("serve.batch_fill", med (fun _ p -> p.mean_batch_fill));
    ("serve.queue_depth_mean", med (fun _ p -> p.queue_depth_mean));
    ("serve.overload_batches", med (fun _ p -> fi p.overload_batches));
    ("serve.shed", med (fun _ p -> fi p.shed));
    ("serve.max_rate", max_rate);
  ]

(* ---------- the two kinds of run ---------- *)

type result = { metrics : metric list; attempted : int; failed : int }

let totals (rs : round list) =
  ( List.fold_left (fun a (r : round) -> a + r.attempted) 0 rs,
    List.fold_left (fun a (r : round) -> a + r.failed) 0 rs )

let run_untraced ~seed ~budget_ms w =
  let setup_ms, rs =
    rounds ~seed ~budget_ms w (fun i s -> engine_round w ~audit:(i = 0) s)
  in
  (match w with
  | Batch _ -> require "every round places identically" (same_fingerprint rs)
  | Serve _ -> ());
  let attempted, failed = totals rs in
  { metrics = end_to_end ~setup_ms rs; attempted; failed }

(* Untraced and traced rounds alternate, so that the tracing overhead
   compares rounds run close together in time. The layer metrics come
   from the first traced round, whose spans are written to [trace_file];
   serving leaves half the time to the rate ladder. *)
let run_traced ~seed ~budget_ms ~trace_file w =
  let budget_ms =
    match w with Serve _ -> budget_ms /. 2. | Batch _ -> budget_ms
  in
  let _, rs =
    rounds ~min_rounds:2 ~seed ~budget_ms w (fun i s ->
        if i mod 2 = 0 then Either.Left (engine_round w ~audit:(i = 0) s)
        else Either.Right (traced_round w ~audit:(i = 1) s))
  in
  let base, traced = List.partition_map Fun.id rs in
  (match w with
  | Batch _ ->
      require "traced rounds place exactly as the engine stack"
        (same_fingerprint (base @ List.map (fun (r, _, _) -> r) traced))
  | Serve c ->
      require "traced serving places exactly as the engine stack"
        (serve_fingerprint ~seed w c (fun s -> s.built.Engine.Stack.scheduler)
        = serve_fingerprint ~seed w c (fun _ ->
              traced_aladdin (Spans.create ()) (new_work ()))));
  let per_call ms = ratio (fsum ms) (fi (List.length ms)) in
  let overhead =
    median
      (List.map2
         (fun b (_, sp, _) ->
           (per_call (Spans.root_ms sp) /. per_call (call_ms b)) -. 1.)
         (List.filteri (fun i _ -> i < List.length traced) base)
         traced)
  in
  let _, sp, layers = List.hd traced in
  let traced_ms = Spans.root_ms sp in
  let traced_total = fsum traced_ms in
  let values, covered = layer_values sp ~traced_total layers in
  let med f = median (List.map f base) in
  let values =
    [
      ("trace.batch_ms", per_call traced_ms);
      ("trace.coverage", ratio covered traced_total);
      ("trace.overhead", overhead);
      ("gc.minor_words_per_container",
        med (fun r -> ratio r.meter.minor_words (fi r.meter.placements)));
      ("gc.major_collections", med (fun r -> fi r.meter.major_collections));
    ]
    @ values
    @ (match w with
      | Serve c -> serve_values base ~max_rate:(serve_max_rate ~seed w c)
      | Batch _ -> [])
  in
  require "every layer value is a listed metric"
    (List.for_all (fun (n, _) -> List.mem_assoc n layer_metrics) values);
  Spans.write sp trace_file;
  let attempted, failed =
    totals (base @ List.map (fun (r, _, _) -> r) traced)
  in
  {
    metrics =
      List.map
        (fun (n, u) ->
          metric n u (Option.value ~default:0. (List.assoc_opt n values)))
        layer_metrics;
    attempted;
    failed;
  }

(* ---------- command line ---------- *)

let usage =
  "usage: bench.exe --workload steady|cells|saturated|serve --seed N \
   [--seconds S] [--trace FILE]"

type args = {
  which : string option;
  seed : int;
  seconds : float;
  trace : string option;
}

let rec parse a = function
  | [] -> Ok a
  | "--workload" :: v :: rest -> parse { a with which = Some v } rest
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> parse { a with seed } rest
      | None -> Error ("--seed: not an integer: " ^ v))
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> parse { a with seconds = s } rest
      | _ -> Error ("--seconds: not a positive number: " ^ v))
  | "--trace" :: v :: rest -> parse { a with trace = Some v } rest
  | arg :: _ -> Error ("unexpected argument: " ^ arg)

let json_number name v =
  require (name ^ " is a finite number") (Float.is_finite v);
  Printf.sprintf "%.17g" v

let () =
  let args =
    parse
      { which = None; seed = 42; seconds = 25.; trace = None }
      (List.tl (Array.to_list Sys.argv))
  in
  let a, w =
    match args with
    | Ok ({ which = Some n; _ } as a) -> (
        match workload ~seed:a.seed n with
        | Some w -> (a, w)
        | None ->
            prerr_endline usage;
            exit 2)
    | Ok _ ->
        prerr_endline usage;
        exit 2
    | Error e ->
        prerr_endline e;
        prerr_endline usage;
        exit 2
  in
  let name = Option.get a.which in
  match
    let budget_ms = a.seconds *. 1e3 in
    let r =
      match a.trace with
      | None -> run_untraced ~seed:a.seed ~budget_ms w
      | Some trace_file -> run_traced ~seed:a.seed ~budget_ms ~trace_file w
    in
    (r, List.map (fun mt -> (mt, json_number mt.name mt.value)) r.metrics)
  with
  | exception Check_failed check ->
      Printf.eprintf "%s: check failed: %s\n" name check;
      exit 1
  | exception e ->
      Printf.eprintf "%s: failed: %s\n" name (Printexc.to_string e);
      exit 1
  | r, numbers ->
      List.iter
        (fun (mt, _) ->
          Printf.printf "%s/%s %.6g %s%s\n" name mt.name mt.value mt.unit
            (if mt.note = "" then "" else " " ^ mt.note))
        numbers;
      Printf.printf
        "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        r.attempted r.failed
        (String.concat ", "
           (List.map
              (fun (mt, v) ->
                Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name v
                  mt.unit)
              numbers))
