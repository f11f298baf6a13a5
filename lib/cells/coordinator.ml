(* Two-phase cell coordinator.

   Phase 1: the batch is assigned app-by-app to cells (greedy best-fit on
   per-cell free-CPU estimates) and each active cell's scheduler runs on
   that cell's private mirror cluster — in parallel on the domain pool.
   Cells are disjoint machine sets over a shared immutable topology, so an
   anti-affinity constraint can never span two cells' *machines*; the only
   cross-cell coupling is capacity, which phase 2 handles.

   Phase 2: mirror mutations are replayed onto the outer cluster (the
   single source of truth) in cell order, then a global fix-up scheduler
   runs over the containers no cell could place — with every machine
   visible, so cross-cell migration/preemption and capacity borrowing
   happen here, on the (small) border problem only.

   Consistency: each mirror is a pure function of the outer cluster.
   [Cluster.version] detects out-of-band outer mutations (revocations,
   audit repairs, transactional rollbacks above us) and triggers a mirror
   rebuild; replay failures raise [Desync], which rolls the outer cluster
   back to phase 2's [Cluster.mark] in O(mutations), rebuilds, and
   retries the batch once. With one cell the coordinator degenerates to
   the inner scheduler on a full-cluster mirror — placements are then
   bit-for-bit those of the unsharded scheduler (the differential
   suite's anchor case).

   Supervision (optional): with a [Supervisor.t] attached, cells become
   real fault domains. Phase 1 stops being all-or-nothing — a cell whose
   task fails with a recoverable error is retried in isolation (bounded,
   with jittered exponential backoff, on a freshly rebuilt mirror), a
   cell that hangs past the join timeout is abandoned (the pool is
   retired and replaced; the straggler domain finishes into a discarded
   mirror and then exits), and a cell that ultimately fails only costs
   its own sub-batch, which rides the phase-2 fix-up (or goes
   undeployed). The supervisor's circuit breaker quarantines a cell
   after repeated failures: its machines are redistributed to
   neighbouring cells via [Partition.reslice], and after a cooldown the
   cell rejoins half-open — the next batch it is assigned is the probe
   that reinstates it or re-opens the breaker. *)

exception Desync of string

type mode = [ `Auto | `Domains | `Sequential ]

let mode_of_env () =
  match Sys.getenv_opt "ALADDIN_CELLS_MODE" with
  | Some "domains" -> `Domains
  | Some "sequential" -> `Sequential
  | Some _ | None -> `Auto

type breakdown = {
  cell_ms : float array;  (** per-cell phase-1 wall ms; 0 for idle cells *)
  fixup_ms : float;
  apply_ms : float;
  active_cells : int;
  fixup_containers : int;
}

type cell_state = {
  idx : int;
  mutable lo : int;  (** global machine id of the cell's local machine 0 *)
  mutable mirror : Cluster.t;
  mutable sched : Scheduler.t;
      (** replaced after a stall: the abandoned straggler still owns the
          old scheduler object, so it must never be reused *)
}

type bind = {
  outer : Cluster.t;
  base_part : Partition.t;  (** the full partition, before any reslice *)
  mutable part : Partition.t;
  mutable live : bool array;
  cells : cell_state array;
  free_cpu : int array;  (** per-cell online free CPU, kept incrementally *)
  mutable expected_version : int;
  mutable dirty : bool;
  mutable last : breakdown option;
}

type t = {
  req_cells : int;
  mode : mode;
  fixup_enabled : bool;
  make_cell : cell:int -> n_cells:int -> Scheduler.t;
  fixup_run : (Cluster.t -> Container.t array -> Scheduler.outcome) option;
  recoverable : exn -> bool;
  supervisor : Supervisor.t option;
  mutable pool : Pool.t option;
  mutable retired : Pool.t list;
      (** abandoned pools, stopped but not joined until {!shutdown} *)
  mutable bound : bind option;
}

let c_resyncs = Obs.counter "cells.resyncs"
let c_desyncs = Obs.counter "cells.desyncs"
let c_batch_retries = Obs.counter "cells.batch_retries"
let c_rejected = Obs.counter "cells.rejected_batches"
let c_active = Obs.counter "cells.active_cells"
let c_fixup_containers = Obs.counter "cells.fixup_containers"
let c_fixup_placed = Obs.counter "cells.fixup_placed"
let h_cell = Obs.histogram "cells.cell_ns"
let h_fixup = Obs.histogram "cells.fixup_ns"

let create ?(mode = `Auto) ?(fixup = true) ?fixup_run ?supervisor ~recoverable
    ~n_cells make_cell =
  {
    req_cells = max 1 n_cells;
    mode;
    fixup_enabled = fixup;
    make_cell;
    fixup_run;
    recoverable;
    supervisor;
    pool = None;
    retired = [];
    bound = None;
  }

let supervisor t = t.supervisor

(* An abandoned pool (timed-out or interrupted join) is retired: its
   idle workers exit now and its straggler when its finite stall ends, so
   abandoned pools never accumulate live domains. {!shutdown} joins them. *)
let retire_pool t =
  Option.iter
    (fun p ->
      Pool.retire p;
      t.retired <- p :: t.retired)
    t.pool;
  t.pool <- None

(* Supervised pools put a worker on EVERY cell (not n-1): the caller must
   stay free to time the join out instead of draining — a hung task
   picked up by the caller could never be abandoned. *)
let pool_for t n_cells =
  match t.pool with
  | Some p when not (Pool.abandoned p) -> p
  | _ ->
      retire_pool t;
      let supervised = t.supervisor <> None in
      let workers =
        match t.mode with
        | `Sequential -> 0
        | `Domains -> if supervised then n_cells else n_cells - 1
        | `Auto ->
            let rdc = Domain.recommended_domain_count () in
            if supervised then min n_cells (max 1 (rdc - 1))
            else min (n_cells - 1) (rdc - 1)
      in
      let p = Pool.create ~workers:(max 0 workers) in
      t.pool <- Some p;
      p

let shutdown t =
  Option.iter Pool.shutdown t.pool;
  List.iter Pool.shutdown t.retired;
  t.retired <- []

let cpu_of (c : Container.t) =
  max 1 (Resource.get c.Container.demand Resource.cpu_dim)

let refresh_lo b cs = cs.lo <- fst (Partition.bounds b.part cs.idx)

let free_cpu_of_outer b cs =
  let lo, hi = Partition.bounds b.part cs.idx in
  let acc = ref 0 in
  for g = lo to hi - 1 do
    if not (Cluster.is_offline b.outer g) then
      acc :=
        !acc
        + Resource.get
            (Machine.free (Cluster.machine b.outer g))
            Resource.cpu_dim
  done;
  b.free_cpu.(cs.idx) <- !acc

let fresh_mirror b cs =
  cs.mirror <-
    Cluster.create
      (Partition.sub_topology b.part cs.idx)
      ~constraints:(Cluster.constraints b.outer);
  let lo, hi = Partition.bounds b.part cs.idx in
  for g = lo to hi - 1 do
    if Cluster.is_offline b.outer g then
      Cluster.set_offline cs.mirror (g - lo) true
  done

(* Mirrors are rebuilt from scratch rather than patched: a rebuild gives
   each cell a *fresh* Cluster identity, and the per-cell scheduler binds
   its carried search to that identity, so a rebuilt mirror gets a fresh
   search (a refresh would reseed from the mirror anyway). Rebuilds are rare
   (bind, out-of-band outer mutation, post-failure, rotation change).
   Quarantined cells own a zero-width slice and are skipped — their stale
   mirror object is never assigned work nor replayed into. *)
let rebuild_mirrors b =
  let outer = b.outer in
  Array.iter
    (fun cs ->
      refresh_lo b cs;
      if Partition.n_machines_of b.part cs.idx > 0 then fresh_mirror b cs)
    b.cells;
  List.iter
    (fun (cid, g) ->
      match Cluster.container outer cid with
      | None -> ()
      | Some c -> (
          let ci = Partition.cell_of_machine b.part g in
          let cs = b.cells.(ci) in
          match Cluster.place ~force:true cs.mirror c (g - cs.lo) with
          | Ok () -> ()
          | Error _ -> raise (Desync "mirror rejected outer placement")))
    (Cluster.placements outer);
  Array.iter (fun cs -> free_cpu_of_outer b cs) b.cells;
  b.expected_version <- Cluster.version outer;
  b.dirty <- false

(* Rebuild exactly one cell's mirror from the outer cluster — the repair
   step between per-cell retry attempts (the failed attempt may have
   half-mutated the mirror) and after a terminal cell failure (phase 2's
   fix-up still replays its events into every live mirror). *)
let rebuild_one b cs =
  refresh_lo b cs;
  if Partition.n_machines_of b.part cs.idx > 0 then begin
    fresh_mirror b cs;
    let lo, hi = Partition.bounds b.part cs.idx in
    List.iter
      (fun (cid, g) ->
        if g >= lo && g < hi then
          match Cluster.container b.outer cid with
          | None -> ()
          | Some c -> (
              match Cluster.place ~force:true cs.mirror c (g - lo) with
              | Ok () -> ()
              | Error _ -> raise (Desync "mirror rejected outer placement")))
      (Cluster.placements b.outer)
  end;
  free_cpu_of_outer b cs

(* Recompute the live set from the supervisor's breakers and reslice the
   partition when it changed. Half-open cells are live: getting their
   machines (and their next sub-batch) back IS the probe. *)
let update_rotation t b =
  match t.supervisor with
  | None -> ()
  | Some sup ->
      let live = Supervisor.live sup ~n_cells:(Array.length b.cells) in
      if live <> b.live then begin
        let old_part = b.part in
        b.part <- Partition.reslice b.base_part ~live;
        let moved = ref 0 in
        Array.iter
          (fun cs ->
            let o = Partition.n_machines_of old_part cs.idx in
            let m = Partition.n_machines_of b.part cs.idx in
            if m > o then moved := !moved + (m - o))
          b.cells;
        Supervisor.note_redistributed !moved;
        b.live <- live;
        b.dirty <- true
      end

let sync t outer =
  match t.bound with
  | Some b when b.outer == outer ->
      update_rotation t b;
      if b.dirty || Cluster.version outer <> b.expected_version then begin
        Obs.incr c_resyncs;
        rebuild_mirrors b
      end;
      b
  | _ ->
      let part =
        Partition.make (Cluster.topology outer) ~n_cells:t.req_cells
      in
      let n = Partition.n_cells part in
      let cells =
        Array.init n (fun i ->
            let lo, _ = Partition.bounds part i in
            {
              idx = i;
              lo;
              mirror =
                Cluster.create (Partition.sub_topology part i)
                  ~constraints:(Cluster.constraints outer);
              sched = t.make_cell ~cell:i ~n_cells:n;
            })
      in
      let b =
        {
          outer;
          base_part = part;
          part;
          live = Array.make n true;
          cells;
          free_cpu = Array.make n 0;
          expected_version = -1;
          dirty = true;
          last = None;
        }
      in
      update_rotation t b;
      rebuild_mirrors b;
      t.bound <- Some b;
      b

(* Deterministic app-granular assignment: apps in first-seen batch order,
   each filling the cell with the largest remaining free estimate and
   overflowing to the next-best when it runs dry. Sub-batches preserve the
   original batch order (with one cell this makes the sub-batch *be* the
   batch, which the exact-equivalence anchor depends on). Estimates are a
   scratch copy — the persistent ones advance only on applied events.
   Quarantined (zero-machine) cells are never eligible. *)
let assign b batch =
  let n = Array.length b.cells in
  if n = 1 then [| batch |]
  else begin
    let est = Array.copy b.free_cpu in
    let eligible = Array.init n (fun i -> Partition.n_machines_of b.part i > 0) in
    let argmax () =
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if eligible.(i) && (!best < 0 || est.(i) > est.(!best)) then best := i
      done;
      max 0 !best
    in
    let cell_of = Array.make (Array.length batch) 0 in
    let order = ref [] in
    let groups : (Application.id, int list ref) Hashtbl.t =
      Hashtbl.create 32
    in
    Array.iteri
      (fun i (c : Container.t) ->
        match Hashtbl.find_opt groups c.Container.app with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.replace groups c.Container.app (ref [ i ]);
            order := c.Container.app :: !order)
      batch;
    List.iter
      (fun app ->
        let idxs = List.rev !(Hashtbl.find groups app) in
        let current = ref (argmax ()) in
        List.iter
          (fun i ->
            let cpu = cpu_of batch.(i) in
            if est.(!current) < cpu then current := argmax ();
            cell_of.(i) <- !current;
            est.(!current) <- est.(!current) - cpu)
          idxs)
      (List.rev !order);
    let buckets = Array.make n [] in
    for i = Array.length batch - 1 downto 0 do
      buckets.(cell_of.(i)) <- batch.(i) :: buckets.(cell_of.(i))
    done;
    Array.map Array.of_list buckets
  end

(* Replay one cell's mirror events onto the outer cluster. The mirror and
   outer agreed before the batch, so every event must apply cleanly; a
   refusal means they diverged — Desync, unwind, rebuild, retry. *)
let apply_cell_events b cs evs =
  List.iter
    (fun ev ->
      match ev with
      | Cluster.Placed (c, local, forced) -> (
          let g = cs.lo + local in
          match Cluster.place ~force:forced b.outer c g with
          | Ok () -> b.free_cpu.(cs.idx) <- b.free_cpu.(cs.idx) - cpu_of c
          | Error _ -> raise (Desync "outer rejected mirrored placement")
          | exception Invalid_argument _ ->
              raise (Desync "container already placed on outer"))
      | Cluster.Removed (c, local) -> (
          let g = cs.lo + local in
          match Cluster.machine_of b.outer c.Container.id with
          | Some g' when g' = g ->
              Cluster.remove b.outer c.Container.id;
              b.free_cpu.(cs.idx) <- b.free_cpu.(cs.idx) + cpu_of c
          | _ -> raise (Desync "outer missing mirrored removal")))
    evs

(* Replay fix-up mutations (made directly on the outer cluster) back into
   the owning mirrors, so the mirrors stay exact without a rebuild. *)
let mirror_outer_events b evs =
  List.iter
    (fun ev ->
      match ev with
      | Cluster.Placed (c, g, _) -> (
          let ci = Partition.cell_of_machine b.part g in
          let cs = b.cells.(ci) in
          match Cluster.place ~force:true cs.mirror c (g - cs.lo) with
          | Ok () -> b.free_cpu.(ci) <- b.free_cpu.(ci) - cpu_of c
          | Error _ -> raise (Desync "mirror rejected fixup placement")
          | exception Invalid_argument _ ->
              raise (Desync "container already placed on mirror"))
      | Cluster.Removed (c, g) -> (
          let ci = Partition.cell_of_machine b.part g in
          let cs = b.cells.(ci) in
          match Cluster.machine_of cs.mirror c.Container.id with
          | Some l when l = g - cs.lo ->
              Cluster.remove cs.mirror c.Container.id;
              b.free_cpu.(ci) <- b.free_cpu.(ci) + cpu_of c
          | _ -> raise (Desync "mirror missing fixup removal")))
    evs

(* One cell's phase-1 task. The mirror object is captured at call time so
   a straggler abandoned after a join timeout keeps mutating (and clears
   the tracer of) its own discarded mirror, never a rebuilt one. Domain
   faults are probed here: a crash raises, a stall/slowdown sleeps wall
   time, and the corruption verdict duplicates the newest placement event
   — which phase 2 then detects as a Desync. *)
let cell_task b ambient subs ci () =
  let cs = b.cells.(ci) in
  (* Capture mirror and scheduler before the (possibly stalling) fault
     probe: a straggler abandoned after a join timeout keeps using its own
     snapshot while the cell is rebuilt around it. *)
  let mirror = cs.mirror in
  let sched = cs.sched in
  (match Fault.cell_fault ~cell:ci with
  | `None -> ()
  | `Crash -> raise (Fault.Injected "cells.cell_fault")
  | `Stall s | `Slow s -> if s > 0. then Unix.sleepf s);
  let events = ref [] in
  Cluster.set_tracer mirror (Some (fun ev -> events := ev :: !events));
  let t0 = Obs.now_ns () in
  let run () = sched.Scheduler.schedule mirror subs.(ci) in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Cluster.set_tracer mirror None)
      (fun () ->
        match ambient with
        | None -> run ()
        | Some d -> Flownet.Deadline.with_ambient d run)
  in
  let dt = Int64.sub (Obs.now_ns ()) t0 in
  Obs.observe_ns h_cell dt;
  if Fault.cell_corrupt ~cell:ci then
    (match !events with
    | (Cluster.Placed _ as e) :: _ -> events := e :: !events
    | _ -> ());
  (ci, outcome, List.rev !events, Int64.to_float dt /. 1e6)

(* Supervised phase 1: per-cell verdicts instead of all-or-nothing.
   Recoverable failures retry in isolation (bounded, backed off, on a
   rebuilt mirror, on the calling domain — deterministic in cell order);
   stalls past the join timeout abandon the pool and fail the cell
   without retry (the straggler still owns the old mirror); terminal
   failures surrender the cell's sub-batch to phase 2. Non-recoverable
   errors (deadline expiry, kills) still travel. *)
let phase1_supervised t b sup subs active ambient =
  Array.iter
    (fun ci -> if Supervisor.is_probing sup ~cell:ci then Supervisor.note_probe ())
    active;
  let tasks = Array.map (fun ci -> cell_task b ambient subs ci) active in
  let pool = pool_for t (Array.length b.cells) in
  let timeout_ms = (Supervisor.config sup).Supervisor.join_timeout_ms in
  let initial =
    if Pool.n_workers pool = 0 || timeout_ms <= 0. then
      Array.map Option.some (Pool.run pool tasks)
    else
      match Pool.run_within pool ~timeout_s:(timeout_ms /. 1e3) tasks with
      | `Done rs -> Array.map Option.some rs
      | `Timed_out partial ->
          retire_pool t;
          partial
  in
  let max_retries = (Supervisor.config sup).Supervisor.max_retries in
  let ok = ref [] in
  let failed = ref [] in
  let succeed ((ci, _, _, ms) as res) =
    ignore (Supervisor.record_success sup ~cell:ci ~ms);
    ok := res :: !ok
  in
  let fail ci =
    ignore (Supervisor.record_failure sup ~cell:ci);
    (* phase 2's fix-up replays into every live mirror, so even a failed
       cell's mirror must reflect outer truth before we continue *)
    rebuild_one b b.cells.(ci);
    failed := ci :: !failed
  in
  let rec retry ci attempt =
    if attempt >= max_retries then None
    else begin
      Unix.sleepf (Supervisor.backoff_s sup ~attempt);
      Supervisor.note_retry ();
      rebuild_one b b.cells.(ci);
      match cell_task b ambient subs ci () with
      | res -> Some res
      | exception e when t.recoverable e -> retry ci (attempt + 1)
    end
  in
  Array.iteri
    (fun k r ->
      let ci = active.(k) in
      match r with
      | Some (Ok res) -> succeed res
      | None ->
          (* Stalled past the join timeout. The abandoned straggler still
             owns this cell's scheduler object, so retire it: later
             batches must not race its carried search against the
             straggler. *)
          Supervisor.note_stall ();
          let cs = b.cells.(ci) in
          cs.sched <- t.make_cell ~cell:ci ~n_cells:(Array.length b.cells);
          fail ci
      | Some (Error e) when t.recoverable e -> (
          match retry ci 0 with Some res -> succeed res | None -> fail ci)
      | Some (Error e) ->
          b.dirty <- true;
          raise e)
    initial;
  (Array.of_list (List.rev !ok), List.rev !failed)

let attempt t outer batch =
  let b = sync t outer in
  let n = Array.length b.cells in
  let subs = assign b batch in
  let active = ref [] in
  for i = n - 1 downto 0 do
    if Array.length subs.(i) > 0 then active := i :: !active
  done;
  let active = Array.of_list !active in
  (* The ambient deadline is per-domain; capture it here and re-arm it
     inside every worker task so one batch budget bounds all cells. *)
  let ambient = Flownet.Deadline.ambient () in
  let results, failed_cells =
    match t.supervisor with
    | Some sup -> phase1_supervised t b sup subs active ambient
    | None ->
        let tasks = Array.map (fun ci -> cell_task b ambient subs ci) active in
        let results = Pool.run (pool_for t n) tasks in
        (* All-or-nothing phase 1: any failed cell poisons its mirror (and
           the succeeded cells' mirrors have run ahead of the untouched
           outer), so mark dirty and let the error travel — the outer
           cluster was never mutated. Deadline expiry passes through to
           the ladder above us. *)
        Array.iter
          (function
            | Error e ->
                b.dirty <- true;
                raise e
            | Ok _ -> ())
          results;
        ( Array.map (function Ok r -> r | Error _ -> assert false) results,
          [] )
  in
  let failed_subs = List.map (fun ci -> subs.(ci)) failed_cells in
  let fixup_out = ref None in
  let fixup_ms = ref 0. in
  let fixup_n = ref 0 in
  let t_apply0 = Obs.now_ns () in
  let fixup_path = n > 1 && t.fixup_enabled && t.fixup_run <> None in
  (* Phase 2 runs under a mark on the outer cluster: any failure rolls
     back exactly what apply and fix-up did to it. *)
  let m = Cluster.mark outer in
  Fun.protect
    ~finally:(fun () -> Cluster.release outer m)
    (fun () ->
      try
        Array.iter
          (fun (ci, _, evs, _) -> apply_cell_events b b.cells.(ci) evs)
          results;
        let leftovers =
          if fixup_path then
            Array.concat
              (List.concat_map
                 (fun (_, o, _, _) ->
                   [ Array.of_list o.Scheduler.undeployed ])
                 (Array.to_list results)
              @ failed_subs)
          else [||]
        in
        fixup_n := Array.length leftovers;
        if Array.length leftovers > 0 then begin
          let run = Option.get t.fixup_run in
          let events = ref [] in
          Cluster.set_tracer b.outer (Some (fun ev -> events := ev :: !events));
          let t0 = Obs.now_ns () in
          let fo =
            Fun.protect
              ~finally:(fun () -> Cluster.set_tracer b.outer None)
              (fun () -> run b.outer leftovers)
          in
          let dt = Int64.sub (Obs.now_ns ()) t0 in
          Obs.observe_ns h_fixup dt;
          fixup_ms := Int64.to_float dt /. 1e6;
          mirror_outer_events b (List.rev !events);
          Obs.add c_fixup_placed (List.length fo.Scheduler.placed);
          fixup_out := Some fo
        end
      with e ->
        Cluster.rollback outer m ~on_drop:ignore;
        b.dirty <- true;
        raise e);
  b.expected_version <- Cluster.version outer;
  Obs.add c_active (Array.length active);
  Obs.add c_fixup_containers !fixup_n;
  let cell_ms = Array.make n 0. in
  Array.iter (fun (ci, _, _, ms) -> cell_ms.(ci) <- ms) results;
  let apply_ms =
    Int64.to_float (Int64.sub (Obs.now_ns ()) t_apply0) /. 1e6
    -. !fixup_ms
  in
  b.last <-
    Some
      {
        cell_ms;
        fixup_ms = !fixup_ms;
        apply_ms;
        active_cells = Array.length active;
        fixup_containers = !fixup_n;
      };
  (* Final placements, unsharded-style: each batch container's machine in
     the (now committed) outer cluster, in batch order. *)
  let placed =
    Array.to_list batch
    |> List.filter_map (fun (c : Container.t) ->
           Option.map
             (fun m -> (c.Container.id, m))
             (Cluster.machine_of b.outer c.Container.id))
  in
  let cell_outcomes = Array.to_list results |> List.map (fun (_, o, _, _) -> o) in
  let undeployed =
    match !fixup_out with
    | Some fo -> fo.Scheduler.undeployed
    | None ->
        if fixup_path then [] (* leftovers were empty *)
        else
          List.concat_map (fun o -> o.Scheduler.undeployed) cell_outcomes
          @ List.concat_map Array.to_list failed_subs
  in
  let sum f =
    List.fold_left (fun acc o -> acc + f o) 0
      (cell_outcomes @ Option.to_list !fixup_out)
  in
  {
    Scheduler.placed;
    undeployed;
    violations =
      List.concat_map
        (fun o -> o.Scheduler.violations)
        (cell_outcomes @ Option.to_list !fixup_out);
    migrations = sum (fun o -> o.Scheduler.migrations);
    preemptions = sum (fun o -> o.Scheduler.preemptions);
    rounds = sum (fun o -> o.Scheduler.rounds);
  }

let schedule t outer batch =
  let reject () =
    Obs.incr c_rejected;
    Scheduler.reject_outcome batch
  in
  (* Cooldowns tick once per batch, before rotation is applied in sync —
     never per attempt, so desync retries within a batch don't fast-run
     a quarantined cell's clock. *)
  Option.iter (fun sup -> ignore (Supervisor.tick sup)) t.supervisor;
  let batch_retries =
    match t.supervisor with
    | Some sup -> max 1 (Supervisor.config sup).Supervisor.max_retries
    | None -> 1
  in
  try
    (* Harness probe before any mutation: a tripped coordinator batch is
       rejected whole, outer untouched. *)
    Fault.trip_solver_step "cells.batch";
    attempt t outer batch
  with
  | Desync _ ->
      Obs.incr c_desyncs;
      Option.iter (fun b -> b.dirty <- true) t.bound;
      (* Phase 2 already rolled the outer cluster back; rebuild mirrors
         and retry the whole batch — once unsupervised, up to the
         supervisor's retry budget (with backoff) otherwise. *)
      let rec again k =
        Obs.incr c_batch_retries;
        (match t.supervisor with
        | Some sup when k > 0 ->
            Unix.sleepf (Supervisor.backoff_s sup ~attempt:(k - 1))
        | _ -> ());
        match attempt t outer batch with
        | o -> o
        | exception Desync _ ->
            Option.iter (fun b -> b.dirty <- true) t.bound;
            if k + 1 < batch_retries then begin
              Obs.incr c_desyncs;
              again (k + 1)
            end
            else reject ()
        | exception e when t.recoverable e -> reject ()
      in
      again 0
  | e when t.recoverable e -> reject ()
  | e ->
      (* Non-recoverable (Deadline.Expired, Killed, genuine bugs): the
         outer cluster is unwound (or untouched), but mirrors may have run
         ahead — force a rebuild before the next batch. *)
      Option.iter (fun b -> b.dirty <- true) t.bound;
      raise e

let scheduler t ~name = { Scheduler.name; schedule = schedule t }

let n_cells t =
  match t.bound with
  | Some b -> Array.length b.cells
  | None -> t.req_cells

let last_breakdown t = Option.bind t.bound (fun b -> b.last)
