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

   Phase 1 is all-or-nothing: a cell task that raises fails the whole
   batch before the outer cluster is touched, and the mirrors are
   rebuilt on the next batch. *)

exception Desync of string

type mode = [ `Auto | `Domains | `Sequential ]

type breakdown = {
  cell_ms : float array;  (** per-cell phase-1 wall ms; 0 for idle cells *)
  fixup_ms : float;
  apply_ms : float;
  active_cells : int;
  fixup_containers : int;
}

type cell_state = {
  idx : int;
  lo : int;  (** global machine id of the cell's local machine 0 *)
  mutable mirror : Cluster.t;
  sched : Scheduler.t;
}

type bind = {
  outer : Cluster.t;
  part : Partition.t;
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
  mutable pool : Pool.t option;
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

let create ?(mode = `Auto) ?(fixup = true) ?fixup_run ~recoverable ~n_cells
    make_cell =
  {
    req_cells = max 1 n_cells;
    mode;
    fixup_enabled = fixup;
    make_cell;
    fixup_run;
    recoverable;
    pool = None;
    bound = None;
  }

(* An abandoned pool (interrupted wait) is joined and replaced. *)
let pool_for t n_cells =
  match t.pool with
  | Some p when not (Pool.abandoned p) -> p
  | stale ->
      Option.iter Pool.shutdown stale;
      let workers =
        match t.mode with
        | `Sequential -> 0
        | `Domains -> n_cells - 1
        | `Auto -> min (n_cells - 1) (Domain.recommended_domain_count () - 1)
      in
      let p = Pool.create ~workers:(max 0 workers) in
      t.pool <- Some p;
      p

let shutdown t = Option.iter Pool.shutdown t.pool

let cpu_of (c : Container.t) =
  max 1 (Resource.get c.Container.demand Resource.cpu_dim)

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

(* Mirrors are rebuilt from scratch rather than patched: a rebuild gives
   each cell a *fresh* Cluster identity, and the per-cell scheduler binds
   its carried search to that identity, so a rebuilt mirror gets a fresh
   search (a refresh would reseed from the mirror anyway). Rebuilds are rare
   (bind, out-of-band outer mutation, failed batch). *)
let rebuild_mirrors b =
  let outer = b.outer in
  Array.iter
    (fun cs ->
      cs.mirror <-
        Cluster.create
          (Partition.sub_topology b.part cs.idx)
          ~constraints:(Cluster.constraints outer);
      let lo, hi = Partition.bounds b.part cs.idx in
      for g = lo to hi - 1 do
        if Cluster.is_offline outer g then
          Cluster.set_offline cs.mirror (g - lo) true
      done)
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

let sync t outer =
  match t.bound with
  | Some b when b.outer == outer ->
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
          part;
          cells;
          free_cpu = Array.make n 0;
          expected_version = -1;
          dirty = true;
          last = None;
        }
      in
      rebuild_mirrors b;
      t.bound <- Some b;
      b

(* Deterministic app-granular assignment: apps in first-seen batch order,
   each filling the cell with the largest remaining free estimate and
   overflowing to the next-best when it runs dry. Sub-batches preserve the
   original batch order (with one cell this makes the sub-batch *be* the
   batch, which the exact-equivalence anchor depends on). Estimates are a
   scratch copy — the persistent ones advance only on applied events. *)
let assign b batch =
  let n = Array.length b.cells in
  if n = 1 then [| batch |]
  else begin
    let est = Array.copy b.free_cpu in
    let argmax () =
      let best = ref 0 in
      for i = 1 to n - 1 do
        if est.(i) > est.(!best) then best := i
      done;
      !best
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

(* One cell's phase-1 task. Domain faults are probed here: a crash
   raises, and the corruption verdict duplicates the newest placement
   event — which phase 2 then detects as a Desync. *)
let cell_task b ambient subs ci () =
  let cs = b.cells.(ci) in
  if Fault.cell_crash ~cell:ci then raise (Fault.Injected "cells.cell_fault");
  let events = ref [] in
  Cluster.set_tracer cs.mirror (Some (fun ev -> events := ev :: !events));
  let t0 = Obs.now_ns () in
  let run () = cs.sched.Scheduler.schedule cs.mirror subs.(ci) in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Cluster.set_tracer cs.mirror None)
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
  (* All-or-nothing phase 1: any failed cell poisons its mirror (and the
     succeeded cells' mirrors have run ahead of the untouched outer), so
     mark dirty and let the error travel — the outer cluster was never
     mutated. Deadline expiry passes through to the ladder above us. *)
  let results =
    Pool.run (pool_for t n)
      (Array.map (fun ci -> cell_task b ambient subs ci) active)
    |> Array.map (function
         | Ok r -> r
         | Error e ->
             b.dirty <- true;
             raise e)
  in
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
              (List.map
                 (fun (_, o, _, _) -> Array.of_list o.Scheduler.undeployed)
                 (Array.to_list results))
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
        else List.concat_map (fun o -> o.Scheduler.undeployed) cell_outcomes
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
  try
    (* Harness probe before any mutation: a tripped coordinator batch is
       rejected whole, outer untouched. *)
    Fault.trip_solver_step "cells.batch";
    attempt t outer batch
  with
  | Desync _ -> (
      Obs.incr c_desyncs;
      Option.iter (fun b -> b.dirty <- true) t.bound;
      (* Phase 2 already rolled the outer cluster back; rebuild mirrors
         and retry the whole batch once. *)
      Obs.incr c_batch_retries;
      match attempt t outer batch with
      | o -> o
      | exception Desync _ ->
          Option.iter (fun b -> b.dirty <- true) t.bound;
          reject ()
      | exception e when t.recoverable e -> reject ())
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
