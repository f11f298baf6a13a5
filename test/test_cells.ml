(* Differential suite for the sharded scheduling cells: the sharded
   composite must reproduce the unsharded scheduler exactly at one cell,
   be deterministic (and identical between sequential and domain-parallel
   execution) at any cell count, stay audit-clean under adversarial
   partitions and fault injection. Also home to the Obs multi-domain
   merge regressions, since this is the multicore suite. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let seeds = [ 3; 17; 42 ]
let cell_counts = [ 1; 2; 4; 8 ]

(* Small racks so even small test clusters have >= 8 of them to shard. *)
let mpr = 4

let fresh w ~n_machines =
  Gen.fresh_cluster ~machines_per_rack:mpr ~racks_per_group:2 w ~n_machines

let audit_clean ctx cl ~batch ~outcome =
  match Audit.check cl ~batch ~outcome with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: audit violation: %s" ctx
        (Format.asprintf "%a" Audit.pp_violation v)

(* Replay every wave, asserting the audit invariants after each batch, and
   return one fingerprint per batch plus the outcome summaries. *)
let replay ?(audit = true) sched cl waves_list =
  List.mapi
    (fun i wave ->
      let o = sched.Scheduler.schedule cl wave in
      let n_placed = List.length o.Scheduler.placed in
      let n_undep = List.length o.Scheduler.undeployed in
      check int
        (Printf.sprintf "batch %d: placed + undeployed = batch" i)
        (Array.length wave) (n_placed + n_undep);
      if audit then
        audit_clean (Printf.sprintf "batch %d" i) cl ~batch:wave ~outcome:o;
      (Gen.placement_fingerprint cl, o))
    waves_list

let case seed =
  let rng = Rng.create seed in
  let w = Gen.random_workload rng in
  let n_machines = Gen.machines_for w ~headroom:1.2 in
  let batches = Gen.random_waves rng w.Workload.containers ~max_batch:12 in
  (w, n_machines, batches)

let total_undeployed outs =
  List.fold_left
    (fun acc (_, o) -> acc + List.length o.Scheduler.undeployed)
    0 outs

(* ---------- one cell == the unsharded scheduler, exactly ---------- *)

let test_one_cell_equals_unsharded () =
  List.iter
    (fun seed ->
      let w, n_machines, batches = case seed in
      let cl_ref = fresh w ~n_machines in
      let cl_cells = fresh w ~n_machines in
      let reference = Aladdin.Aladdin_scheduler.make () in
      let cells =
        Aladdin.Cells_scheduler.make ~cells:1 ~mode:`Sequential ()
      in
      let ref_run = replay reference cl_ref batches in
      let cells_run = replay cells cl_cells batches in
      List.iteri
        (fun i ((fp_ref, o_ref), (fp_cells, o_cells)) ->
          let ctx what = Printf.sprintf "seed %d batch %d: %s" seed i what in
          if o_ref.Scheduler.placed <> o_cells.Scheduler.placed then
            Alcotest.fail (ctx "placements differ");
          if
            Gen.ids o_ref.Scheduler.undeployed
            <> Gen.ids o_cells.Scheduler.undeployed
          then Alcotest.fail (ctx "undeployed differ");
          check int (ctx "migrations") o_ref.Scheduler.migrations
            o_cells.Scheduler.migrations;
          check int (ctx "preemptions") o_ref.Scheduler.preemptions
            o_cells.Scheduler.preemptions;
          check bool (ctx "fingerprints equal") true (fp_ref = fp_cells))
        (List.combine ref_run cells_run))
    seeds

(* ---------- determinism and sequential == domains ---------- *)

let test_deterministic_and_mode_independent () =
  List.iter
    (fun seed ->
      List.iter
        (fun n_cells ->
          let run mode =
            let w, n_machines, batches = case seed in
            let cl = fresh w ~n_machines in
            let sched = Aladdin.Cells_scheduler.make ~cells:n_cells ~mode () in
            List.map fst (replay sched cl batches)
          in
          let a = run `Sequential in
          let b = run `Sequential in
          let c = run `Domains in
          let ctx what = Printf.sprintf "seed %d cells %d: %s" seed n_cells what in
          check bool (ctx "two sequential runs identical") true (a = b);
          check bool (ctx "domains run = sequential run") true (a = c))
        cell_counts)
    [ 3; 17 ]

(* ---------- bounded quality delta vs the unsharded scheduler ---------- *)

(* Sharding may strand capacity inside cells; the global fix-up phase is
   there to claw it back. The guarantee we pin: over a whole replay, the
   sharded composite leaves at most 10% of the workload (plus a constant
   slack) more undeployed than the unsharded scheduler — for every cell
   count, on every seed. *)
let test_bounded_undeployed_delta () =
  List.iter
    (fun seed ->
      let w, n_machines, batches = case seed in
      let cl_ref = fresh w ~n_machines in
      let reference = Aladdin.Aladdin_scheduler.make () in
      let ref_undep = total_undeployed (replay reference cl_ref batches) in
      let n_total = Array.length w.Workload.containers in
      let bound = ref_undep + 3 + (n_total / 10) in
      List.iter
        (fun n_cells ->
          let cl = fresh w ~n_machines in
          let sched =
            Aladdin.Cells_scheduler.make ~cells:n_cells ~mode:`Sequential ()
          in
          let undep = total_undeployed (replay sched cl batches) in
          if undep > bound then
            Alcotest.failf
              "seed %d cells %d: %d undeployed vs %d unsharded (bound %d)"
              seed n_cells undep ref_undep bound)
        cell_counts)
    seeds

(* ---------- adversarial partitions ---------- *)

(* Every cell but one is fully offline: assignment must funnel the whole
   workload into the live cell, stay audit-clean, and resync cleanly when
   the machines come back. *)
let test_all_but_one_cell_offline () =
  let rng = Rng.create 99 in
  let w = Gen.random_workload ~n_apps:6 rng in
  let n_machines = 8 * mpr in
  let cl = fresh w ~n_machines in
  (* cells = 4 -> cell 0 owns machines [0, 2*mpr) *)
  let live = 2 * mpr in
  for m = live to n_machines - 1 do
    Cluster.set_offline cl m true
  done;
  let sched = Aladdin.Cells_scheduler.make ~cells:4 ~mode:`Sequential () in
  let batches = Gen.random_waves rng w.Workload.containers ~max_batch:10 in
  List.iteri
    (fun i wave ->
      let o = sched.Scheduler.schedule cl wave in
      audit_clean (Printf.sprintf "offline batch %d" i) cl ~batch:wave
        ~outcome:o;
      List.iter
        (fun (_, mid) ->
          if mid >= live then
            Alcotest.failf "batch %d: placement on offline machine %d" i mid)
        o.Scheduler.placed)
    batches;
  (* bring the dark cells back; the version bump must force a resync and
     the next batches may use the whole cluster again *)
  let resyncs = Obs.counter "cells.resyncs" in
  let before = Obs.count resyncs in
  for m = live to n_machines - 1 do
    Cluster.set_offline cl m false
  done;
  let extra_rng = Rng.create 100 in
  let w2 = Gen.random_workload ~n_apps:4 extra_rng in
  List.iteri
    (fun i wave ->
      let o = sched.Scheduler.schedule cl wave in
      audit_clean (Printf.sprintf "revived batch %d" i) cl ~batch:wave
        ~outcome:o)
    (Gen.waves w2.Workload.containers ~n_batches:3);
  check bool "resync counted after out-of-band recovery" true
    (Obs.count resyncs > before)

(* A clique of mutually anti-affine apps spanning every cell pair: no
   tolerated violation, none in the final cluster, placements spread over
   more than one cell. *)
let test_cross_cell_anti_affinity_clique () =
  let n_apps = 8 in
  let apps =
    Array.init n_apps (fun i ->
        Application.make ~id:i ~n_containers:4
          ~demand:(Resource.make ~cpu:2. ~mem_gb:4.) ~anti_affinity_within:true
          ~anti_affinity_across:
            (List.filter (fun j -> j <> i) (List.init n_apps Fun.id))
          ())
  in
  let containers =
    Array.of_list
      (List.concat_map
         (fun (a : Application.t) ->
           Application.containers a ~first_id:0 ~first_arrival:0)
         (Array.to_list apps))
  in
  let containers =
    Array.mapi
      (fun i (c : Container.t) -> { c with Container.id = i; arrival = i })
      containers
  in
  let w =
    Workload.make ~apps ~containers
      ~machine_capacity:(Resource.make ~cpu:16. ~mem_gb:32.)
  in
  (* one machine per container needed: every pair of containers conflicts *)
  let n_machines = Array.length containers + mpr in
  let cl = fresh w ~n_machines in
  let sched = Aladdin.Cells_scheduler.make ~cells:4 ~mode:`Domains () in
  List.iteri
    (fun i wave ->
      let o = sched.Scheduler.schedule cl wave in
      check int
        (Printf.sprintf "clique batch %d: tolerated violations" i)
        0
        (List.length o.Scheduler.violations);
      audit_clean (Printf.sprintf "clique batch %d" i) cl ~batch:wave
        ~outcome:o)
    (Gen.waves containers ~n_batches:4);
  check int "clique: no violations in final placement" 0
    (List.length (Cluster.current_violations cl));
  let cells_used =
    List.sort_uniq compare
      (List.map (fun (_, mid) -> mid / (2 * mpr)) (Cluster.placements cl))
  in
  check bool "clique: placements span multiple cells" true
    (List.length cells_used > 1)

(* A cell whose machines are all saturated before the batch: its
   sub-batches must overflow to other cells (assignment) or the fix-up
   phase, never fail. *)
let test_cell_with_no_feasible_machines () =
  let rng = Rng.create 7 in
  let w0 = Gen.random_workload ~n_apps:6 rng in
  (* the filler app must be in the constraint set for place to accept it *)
  let filler_app =
    Application.make
      ~id:(Array.length w0.Workload.apps)
      ~n_containers:(2 * mpr)
      ~demand:(Resource.make ~cpu:16. ~mem_gb:32.) ~anti_affinity_within:false
      ()
  in
  let w =
    Workload.make
      ~apps:(Array.append w0.Workload.apps [| filler_app |])
      ~containers:w0.Workload.containers
      ~machine_capacity:w0.Workload.machine_capacity
  in
  let n_machines = 8 * mpr in
  let cl = fresh w ~n_machines in
  (* saturate cell 0 (machines [0, 2*mpr) under cells=4) with filler *)
  List.iteri
    (fun i (c : Container.t) ->
      let c = { c with Container.id = 100_000 + i } in
      match Cluster.place ~force:true cl c i with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "filler %d rejected" i)
    (Application.containers filler_app ~first_id:0 ~first_arrival:0);
  let sched = Aladdin.Cells_scheduler.make ~cells:4 ~mode:`Sequential () in
  List.iteri
    (fun i wave ->
      let o = sched.Scheduler.schedule cl wave in
      audit_clean (Printf.sprintf "saturated batch %d" i) cl ~batch:wave
        ~outcome:o;
      List.iter
        (fun (_, mid) ->
          if mid < 2 * mpr then
            Alcotest.failf "batch %d: placement on saturated machine %d" i mid)
        o.Scheduler.placed)
    (Gen.random_waves rng w.Workload.containers ~max_batch:8)

(* ---------- fault injection and deadline stress ---------- *)

(* A deterministic injection (rate 1, budget 1) fires on the very first
   coordinator probe: batch 0 is rejected whole, the cluster is untouched,
   and every later batch proceeds normally — identically in sequential and
   domain-parallel mode. *)
let test_fault_rejects_first_batch_identically () =
  let run mode =
    Fault.install
      (Fault.make ~solver_step_failure:1.0 ~solver_failure_budget:1 ~seed:5 ());
    Fun.protect ~finally:Fault.clear (fun () ->
        let rng = Rng.create 21 in
        let w = Gen.random_workload ~n_apps:8 rng in
        let n_machines = Gen.machines_for w ~headroom:1.2 in
        let cl = fresh w ~n_machines in
        let sched = Aladdin.Cells_scheduler.make ~cells:4 ~mode () in
        let batches = Gen.random_waves rng w.Workload.containers ~max_batch:10 in
        let outs = replay sched cl batches in
        (match (batches, outs) with
        | first :: _, (_, o0) :: _ ->
            check int "batch 0 rejected whole" (Array.length first)
              (List.length o0.Scheduler.undeployed)
        | _ -> Alcotest.fail "no batches generated");
        List.map fst outs)
  in
  let rejected = Obs.counter "cells.rejected_batches" in
  let before = Obs.count rejected in
  let seq = run `Sequential in
  check int "sequential: one rejected batch counted" (before + 1)
    (Obs.count rejected);
  let dom = run `Domains in
  check int "domains: one rejected batch counted" (before + 2)
    (Obs.count rejected);
  check bool "fault run: domains fingerprints = sequential" true (seq = dom)

(* An ambient step deadline expiring inside a cell solve must propagate
   out of the coordinator with the outer cluster untouched; the same batch
   then succeeds once the deadline is lifted. *)
let test_deadline_expiry_leaves_outer_untouched () =
  let rng = Rng.create 31 in
  let w = Gen.random_workload ~n_apps:8 rng in
  let n_machines = Gen.machines_for w ~headroom:1.2 in
  let cl = fresh w ~n_machines in
  let sched = Aladdin.Cells_scheduler.make ~cells:4 ~mode:`Domains () in
  let batches = Gen.waves w.Workload.containers ~n_batches:4 in
  let first, second =
    match batches with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "waves"
  in
  ignore (sched.Scheduler.schedule cl first);
  let fp_before = Gen.placement_fingerprint cl in
  let expired =
    try
      Flownet.Deadline.with_ambient
        (Flownet.Deadline.make ~steps:3 ())
        (fun () -> ignore (sched.Scheduler.schedule cl second));
      false
    with Flownet.Deadline.Expired _ -> true
  in
  check bool "tiny step budget expires inside a cell" true expired;
  check bool "outer cluster untouched after expiry" true
    (Gen.placement_fingerprint cl = fp_before);
  let o = sched.Scheduler.schedule cl second in
  audit_clean "post-expiry batch" cl ~batch:second ~outcome:o

(* ---------- domain faults: one recovery path ---------- *)

let count name = Obs.count (Obs.counter name)

(* Three waves of a random workload on a fresh cluster under cells(4). *)
let fault_case ~mode seed =
  let rng = Rng.create seed in
  let w = Gen.random_workload ~n_apps:8 rng in
  let n_machines = Gen.machines_for w ~headroom:1.2 in
  match Gen.waves w.Workload.containers ~n_batches:3 with
  | [ a; b; c ] ->
      ( fresh w ~n_machines,
        Aladdin.Cells_scheduler.make ~cells:4 ~mode (),
        (a, b, c) )
  | _ -> Alcotest.fail "waves"

(* The final fingerprint of a fault-free run of [pick]'s waves. *)
let fault_free ~mode seed pick =
  let cl, sched, waves = fault_case ~mode seed in
  List.iter (fun wave -> ignore (sched.Scheduler.schedule cl wave)) (pick waves);
  Gen.placement_fingerprint cl

(* Schedule the first wave fault-free, the second under [fault], and the
   third fault-free again. Returns the second wave, the fingerprints
   before and after it, its outcome, and the final fingerprint. *)
let faulted_run ~mode ~fault seed =
  let cl, sched, (first, second, third) = fault_case ~mode seed in
  ignore (sched.Scheduler.schedule cl first);
  let fp_before = Gen.placement_fingerprint cl in
  Fault.install fault;
  let o =
    Fun.protect ~finally:Fault.clear (fun () ->
        sched.Scheduler.schedule cl second)
  in
  let fp_after = Gen.placement_fingerprint cl in
  let o3 = sched.Scheduler.schedule cl third in
  audit_clean "batch after the fault" cl ~batch:third ~outcome:o3;
  check bool "batch after the fault places work" true
    (o3.Scheduler.placed <> []);
  (second, fp_before, o, fp_after, Gen.placement_fingerprint cl)

(* A crashing cell fails phase 1: the batch is rejected whole, the outer
   cluster is untouched, and the next batch (mirrors rebuilt) places as a
   run that never saw the rejected batch would — in both execution
   modes. *)
let test_cell_crash_rejects_batch () =
  List.iter
    (fun mode ->
      let ctx what =
        Printf.sprintf "%s: %s"
          (match mode with `Sequential -> "sequential" | _ -> "domains")
          what
      in
      let crashes = count "fault.cell_crashes" in
      let rejected = count "cells.rejected_batches" in
      let batch, fp_before, o, fp_after, fp_final =
        faulted_run ~mode
          ~fault:(Fault.make ~cell_crash:1.0 ~cell_fault_budget:1 ~seed:11 ())
          43
      in
      check int (ctx "one cell crashed") (crashes + 1)
        (count "fault.cell_crashes");
      check int (ctx "one batch rejected") (rejected + 1)
        (count "cells.rejected_batches");
      check int (ctx "nothing placed") 0 (List.length o.Scheduler.placed);
      check int (ctx "whole batch undeployed") (Array.length batch)
        (List.length o.Scheduler.undeployed);
      check bool (ctx "outer placements unchanged") true (fp_before = fp_after);
      check bool (ctx "next batch = run without the rejected one") true
        (fp_final = fault_free ~mode 43 (fun (a, _, c) -> [ a; c ])))
    [ `Sequential; `Domains ]

(* A corrupted mirror trace surfaces as a phase-2 Desync: the outer
   cluster is rolled back, mirrors rebuilt, and the batch retried once —
   not rejected. *)
let test_corruption_retries_batch () =
  let desyncs = count "cells.desyncs" in
  let retries = count "cells.batch_retries" in
  let rejected = count "cells.rejected_batches" in
  let corruptions = count "fault.cell_corruptions" in
  let batch, _, o, _, fp_final =
    faulted_run ~mode:`Sequential
      ~fault:(Fault.make ~cell_corrupt:1.0 ~cell_fault_budget:1 ~seed:13 ())
      47
  in
  check int "one corruption injected" (corruptions + 1)
    (count "fault.cell_corruptions");
  check int "one desync" (desyncs + 1) (count "cells.desyncs");
  check int "one batch retry" (retries + 1) (count "cells.batch_retries");
  check int "no batch rejected" rejected (count "cells.rejected_batches");
  check int "retried batch accounted" (Array.length batch)
    (List.length o.Scheduler.placed + List.length o.Scheduler.undeployed);
  check bool "retried batch placed work" true (o.Scheduler.placed <> []);
  check bool "placements = fault-free run" true
    (fp_final = fault_free ~mode:`Sequential 47 (fun (a, b, c) -> [ a; b; c ]))

(* ---------- the worker pool ---------- *)

let test_pool_survives_raising_task () =
  let p = Cells.Pool.create ~workers:2 in
  (match
     Cells.Pool.run p
       [| (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) |]
   with
  | [| Ok 1; Error (Failure _); Ok 3 |] -> ()
  | _ -> Alcotest.fail "unexpected results from a raising job");
  (* a raising task must not poison the pool for the next job *)
  (match Cells.Pool.run p [| (fun () -> 7) |] with
  | [| Ok 7 |] -> ()
  | _ -> Alcotest.fail "pool unusable after a raising task");
  check bool "not abandoned" false (Cells.Pool.abandoned p);
  Cells.Pool.shutdown p

(* ---------- Obs: per-domain shards never lose updates ---------- *)

let test_obs_no_lost_updates_across_domains () =
  let c = Obs.counter "test.cells.mc_counter" in
  let h = Obs.histogram "test.cells.mc_hist" in
  let n = 100_000 in
  let before_c = Obs.count c in
  let before_h = (Obs.histogram_stats h).Obs.samples in
  let work () =
    for i = 1 to n do
      Obs.incr c;
      if i mod 100 = 0 then Obs.observe_ns h (Int64.of_int i)
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  work ();
  Domain.join d1;
  Domain.join d2;
  check int "counter merged across 3 domains" (before_c + (3 * n))
    (Obs.count c);
  check int "histogram samples merged across 3 domains"
    (before_h + (3 * (n / 100)))
    (Obs.histogram_stats h).Obs.samples

(* The same property through the worker pool the coordinator uses. *)
let test_obs_counts_through_pool () =
  let c = Obs.counter "test.cells.pool_counter" in
  let before = Obs.count c in
  let pool = Cells.Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> Cells.Pool.shutdown pool)
    (fun () ->
      let tasks =
        Array.init 16 (fun _ () ->
            for _ = 1 to 10_000 do
              Obs.incr c
            done)
      in
      let results = Cells.Pool.run pool tasks in
      Array.iter
        (function Ok () -> () | Error e -> raise e)
        results);
  check int "pool tasks' increments all visible" (before + 160_000)
    (Obs.count c)

let () =
  Alcotest.run "cells"
    [
      ( "equivalence",
        [
          Alcotest.test_case "one cell = unsharded scheduler" `Quick
            test_one_cell_equals_unsharded;
          Alcotest.test_case "deterministic; domains = sequential" `Quick
            test_deterministic_and_mode_independent;
          Alcotest.test_case "bounded undeployed delta" `Quick
            test_bounded_undeployed_delta;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "all but one cell offline" `Quick
            test_all_but_one_cell_offline;
          Alcotest.test_case "cross-cell anti-affinity clique" `Quick
            test_cross_cell_anti_affinity_clique;
          Alcotest.test_case "cell with no feasible machines" `Quick
            test_cell_with_no_feasible_machines;
        ] );
      ( "stress",
        [
          Alcotest.test_case "fault rejects first batch, both modes" `Quick
            test_fault_rejects_first_batch_identically;
          Alcotest.test_case "deadline expiry leaves outer untouched" `Quick
            test_deadline_expiry_leaves_outer_untouched;
          Alcotest.test_case "cell crash rejects the batch, both modes" `Quick
            test_cell_crash_rejects_batch;
          Alcotest.test_case "mirror corruption retries the batch" `Quick
            test_corruption_retries_batch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "raising task leaves the pool reusable" `Quick
            test_pool_survives_raising_task;
        ] );
      ( "obs",
        [
          Alcotest.test_case "no lost counter updates across domains" `Quick
            test_obs_no_lost_updates_across_domains;
          Alcotest.test_case "counts through the worker pool" `Quick
            test_obs_counts_through_pool;
        ] );
    ]
