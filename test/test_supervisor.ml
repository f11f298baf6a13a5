(* Drill suite for the cell supervision layer: exception safety and timed
   joins in the domain pool, quarantine with machine redistribution and
   half-open reinstatement in the supervised coordinator, join-timeout
   abandonment of a stalled domain, and Desync batch retry after mirror
   corruption. Every drill is deterministic: faults come from the seeded
   side-stream with explicit cell targets and budgets. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let count name = Obs.count (Obs.counter name)

(* ---------- Pool regressions ---------- *)

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

let test_pool_inline_never_times_out () =
  let p = Cells.Pool.create ~workers:0 in
  (match
     Cells.Pool.run_within p ~timeout_s:0.001
       [| (fun () -> Unix.sleepf 0.01; 5) |]
   with
  | `Done [| Ok 5 |] -> ()
  | _ -> Alcotest.fail "workers=0 must run inline to completion");
  Cells.Pool.shutdown p

let test_pool_timed_join_abandons () =
  let p = Cells.Pool.create ~workers:2 in
  (match
     Cells.Pool.run_within p ~timeout_s:0.05
       [| (fun () -> 1); (fun () -> Unix.sleepf 0.4; 2) |]
   with
  | `Timed_out partial ->
      check int "partial results per task" 2 (Array.length partial);
      (match partial.(0) with
      | Some (Ok 1) -> ()
      | _ -> Alcotest.fail "finished task must be harvested")
  | `Done _ -> Alcotest.fail "join must time out on the stalled task");
  check bool "pool abandoned" true (Cells.Pool.abandoned p);
  (match Cells.Pool.run p [| (fun () -> 1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "abandoned pool must refuse further work");
  (* a replacement pool works while the straggler finishes on its own *)
  let p2 = Cells.Pool.create ~workers:2 in
  (match Cells.Pool.run p2 [| (fun () -> 9) |] with
  | [| Ok 9 |] -> ()
  | _ -> Alcotest.fail "replacement pool must work");
  Cells.Pool.shutdown p2;
  (* shutdown joins the straggler instead of leaking the domain *)
  Cells.Pool.shutdown p

(* ---------- supervised coordinator drills ---------- *)

let mpr = 4

let fresh w ~n_machines =
  Gen.fresh_cluster ~machines_per_rack:mpr ~racks_per_group:2 w ~n_machines

let chunks ~size arr =
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min size (n - i) in
      go (i + len) (Array.sub arr i len :: acc)
  in
  go 0 []

let drill_workload seed =
  Alibaba.generate { (Alibaba.scaled 0.004) with Alibaba.seed = seed }

(* Run every wave through a supervised cells stack, asserting each batch
   stays fully accounted, and return (placed, undeployed) totals plus the
   final placement fingerprint. *)
let run_waves ~mode ~supervise w ~n_machines waves =
  let comp =
    Aladdin.Cells_scheduler.create ~cells:4 ~mode ?supervise ()
  in
  let sched = Aladdin.Cells_scheduler.scheduler comp in
  let cl = fresh w ~n_machines in
  let totals =
    List.fold_left
      (fun (p, u) wave ->
        let o = sched.Scheduler.schedule cl wave in
        check int "batch fully accounted" (Array.length wave)
          (List.length o.Scheduler.placed
          + List.length o.Scheduler.undeployed);
        (p + List.length o.Scheduler.placed,
         u + List.length o.Scheduler.undeployed))
      (0, 0) waves
  in
  Aladdin.Cells_scheduler.shutdown comp;
  (totals, Gen.placement_fingerprint cl)

let sup_cfg =
  {
    Cells.Supervisor.default with
    Cells.Supervisor.max_retries = 1;
    failure_threshold = 2;
    cooldown = 2;
  }

let test_supervision_neutral_without_faults () =
  Fault.clear ();
  let w = drill_workload 19 in
  let n_machines = Gen.machines_for w ~headroom:1.2 in
  let waves = chunks ~size:16 w.Workload.containers in
  let _, fp_plain =
    run_waves ~mode:`Sequential ~supervise:None w ~n_machines waves
  in
  let _, fp_sup =
    run_waves ~mode:`Sequential ~supervise:(Some sup_cfg) w ~n_machines waves
  in
  check bool "supervision is behaviour-neutral without faults" true
    (fp_plain = fp_sup)

(* A cell crashing on every probe: retried, then quarantined at the
   failure threshold (machines resliced to its neighbours), then — once
   its fault budget is exhausted and the cooldown has elapsed — probed
   half-open and reinstated. The batches meanwhile stay accounted and the
   undeployed overhead stays bounded. *)
let test_quarantine_redistributes_and_reinstates () =
  Fault.clear ();
  let w = drill_workload 21 in
  let n_machines = Gen.machines_for w ~headroom:1.3 in
  let waves = chunks ~size:16 w.Workload.containers in
  if List.length waves < 6 then Alcotest.fail "drill needs >= 6 batches";
  let (placed_h, undep_h), _ =
    run_waves ~mode:`Sequential ~supervise:(Some sup_cfg) w ~n_machines waves
  in
  let q0 = count "cells.supervisor.quarantines" in
  let r0 = count "cells.supervisor.reinstatements" in
  let m0 = count "cells.supervisor.redistributed_machines" in
  let f0 = count "cells.supervisor.retries" in
  Fault.install
    (Fault.make ~cell_crash:1.0 ~cell_targets:[ 1 ] ~cell_fault_budget:4
       ~seed:5 ());
  let (placed_f, undep_f), _ =
    Fun.protect ~finally:Fault.clear (fun () ->
        run_waves ~mode:`Sequential ~supervise:(Some sup_cfg) w ~n_machines
          waves)
  in
  check bool "crashing cell retried" true
    (count "cells.supervisor.retries" > f0);
  check bool "quarantine tripped" true
    (count "cells.supervisor.quarantines" > q0);
  check bool "machines redistributed to neighbours" true
    (count "cells.supervisor.redistributed_machines" > m0);
  check bool "healthy again: half-open probe reinstated the cell" true
    (count "cells.supervisor.reinstatements" > r0);
  check bool "work still placed under quarantine" true (placed_f > 0);
  check bool "undeployed overhead bounded" true
    (undep_f - undep_h <= 2 * 16);
  check int "no work lost" (placed_h + undep_h) (placed_f + undep_f)

(* A domain stalling past the join timeout is abandoned: the batch
   completes without it (its sub-batch rides phase-2 fix-up), the pool is
   replaced, and later batches run normally. *)
let test_stalled_domain_abandoned () =
  Fault.clear ();
  let w = drill_workload 23 in
  let n_machines = Gen.machines_for w ~headroom:1.3 in
  let waves = chunks ~size:16 w.Workload.containers in
  let s0 = count "cells.supervisor.stalls" in
  Fault.install
    (Fault.make ~cell_stall:1.0 ~cell_stall_s:0.3 ~cell_targets:[ 2 ]
       ~cell_fault_budget:1 ~seed:7 ());
  let (placed, _), _ =
    Fun.protect ~finally:Fault.clear (fun () ->
        run_waves ~mode:`Domains
          ~supervise:
            (Some { sup_cfg with Cells.Supervisor.join_timeout_ms = 40. })
          w ~n_machines waves)
  in
  check bool "stalled domain abandoned at the join timeout" true
    (count "cells.supervisor.stalls" > s0);
  check bool "batches kept placing work" true (placed > 0)

(* Live threads of this process (one per running domain), where the OS
   reports them; [None] elsewhere. *)
let live_threads () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "Threads: %d" Fun.id)

(* Wait (briefly) for joined domains' threads to leave the process. *)
let settled_threads base =
  let rec go tries =
    match live_threads () with
    | Some n when n > base && tries > 0 ->
        Unix.sleepf 0.01;
        go (tries - 1)
    | n -> n
  in
  go 100

(* A stall past the join timeout retires the coordinator's pool; shutdown
   must still stop and join that pool's domains. Each cycle spawns one
   pool of 4 workers and stalls one of them, so at most 4 worker domains
   are live at any time when retired pools are joined. A leak shows as
   threads outliving shutdown and, in 32 cycles, as OCaml's 128-domain
   limit ("failed to allocate domain"). *)
let test_retired_pools_joined_at_shutdown () =
  Fault.clear ();
  let w = drill_workload 29 in
  let n_machines = Gen.machines_for w ~headroom:1.3 in
  let wave = Array.sub w.Workload.containers 0 16 in
  let sup = { sup_cfg with Cells.Supervisor.join_timeout_ms = 5. } in
  let s0 = count "cells.supervisor.stalls" in
  let base = live_threads () in
  for cycle = 1 to 40 do
    let comp =
      Aladdin.Cells_scheduler.create ~cells:4 ~mode:`Domains ~supervise:sup ()
    in
    Fault.install
      (Fault.make ~cell_stall:1.0 ~cell_stall_s:0.03 ~cell_fault_budget:1
         ~seed:cycle ());
    Fun.protect
      ~finally:(fun () ->
        Fault.clear ();
        Aladdin.Cells_scheduler.shutdown comp)
      (fun () ->
        let sched = Aladdin.Cells_scheduler.scheduler comp in
        let o = sched.Scheduler.schedule (fresh w ~n_machines) wave in
        check int "batch fully accounted" (Array.length wave)
          (List.length o.Scheduler.placed
          + List.length o.Scheduler.undeployed));
    match base with
    | None -> ()
    | Some b -> (
        match settled_threads b with
        | Some n when n > b ->
            Alcotest.failf "cycle %d: %d domain threads outlived shutdown"
              cycle (n - b)
        | _ -> ())
  done;
  check int "every cycle abandoned its stalled domain" 40
    (count "cells.supervisor.stalls" - s0)

(* Mirror corruption surfaces as a phase-2 Desync: supervised stacks
   retry the batch instead of rejecting it. *)
let test_corruption_retries_batch () =
  Fault.clear ();
  let w = drill_workload 25 in
  let n_machines = Gen.machines_for w ~headroom:1.3 in
  let waves = chunks ~size:16 w.Workload.containers in
  let d0 = count "cells.desyncs" in
  let r0 = count "cells.batch_retries" in
  let rej0 = count "cells.rejected_batches" in
  Fault.install
    (Fault.make ~cell_corrupt:1.0 ~cell_targets:[ 0 ] ~cell_fault_budget:1
       ~seed:9 ());
  let (placed, _), _ =
    Fun.protect ~finally:Fault.clear (fun () ->
        run_waves ~mode:`Sequential ~supervise:(Some sup_cfg) w ~n_machines
          waves)
  in
  check bool "corruption desynced phase 2" true (count "cells.desyncs" > d0);
  check bool "batch retried" true (count "cells.batch_retries" > r0);
  check int "no batch rejected" rej0 (count "cells.rejected_batches");
  check bool "retried batch placed work" true (placed > 0)

let () =
  Alcotest.run "supervisor"
    [
      ( "pool",
        [
          Alcotest.test_case "raising task leaves the pool reusable" `Quick
            test_pool_survives_raising_task;
          Alcotest.test_case "inline pool never times out" `Quick
            test_pool_inline_never_times_out;
          Alcotest.test_case "timed join abandons a stalled domain" `Quick
            test_pool_timed_join_abandons;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "behaviour-neutral without faults" `Quick
            test_supervision_neutral_without_faults;
          Alcotest.test_case "quarantine, redistribution, reinstatement"
            `Quick test_quarantine_redistributes_and_reinstates;
          Alcotest.test_case "stalled domain abandoned at join timeout"
            `Quick test_stalled_domain_abandoned;
          Alcotest.test_case "retired pools joined at shutdown" `Quick
            test_retired_pools_joined_at_shutdown;
          Alcotest.test_case "mirror corruption retries the batch" `Quick
            test_corruption_retries_batch;
        ] );
    ]
