(* Tests for the baseline schedulers: Firmament, Medea, Go-Kube, the
   degradation ladder's rungs and the undeployed-cause classifier. Includes the paper's Figure 1 scenario. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk ?(id = 0) ?(app = 0) ?(priority = 0) ?(arrival = 0) cpu =
  Container.make ~id ~app ~demand:(Resource.cpu_only cpu) ~priority ~arrival

let cluster_of apps ~n_machines ~machine_cpu =
  let topo =
    Topology.homogeneous ~machines_per_rack:2 ~racks_per_group:2 ~n_machines
      ~capacity:(Resource.cpu_only machine_cpu) ()
  in
  Cluster.create topo ~constraints:(Constraint_set.of_apps apps)

(* ---------- cost models ---------- *)

let test_cost_model_names () =
  check bool "trivial" true (Cost_model.of_string "trivial" = Some Cost_model.Trivial);
  check bool "quincy" true (Cost_model.of_string "QUINCY" = Some Cost_model.Quincy);
  check bool "octopus" true (Cost_model.of_string "Octopus" = Some Cost_model.Octopus);
  check bool "unknown" true (Cost_model.of_string "nope" = None)

let test_cost_model_preferences () =
  let cap = Resource.cpu_only 32. in
  let empty = Machine.create ~id:0 ~rack:0 ~group:0 ~capacity:cap in
  let packed = Machine.create ~id:1 ~rack:0 ~group:0 ~capacity:cap in
  Machine.place packed (mk ~id:0 16.);
  check bool "trivial packs" true
    (Cost_model.machine_cost Cost_model.Trivial packed
    < Cost_model.machine_cost Cost_model.Trivial empty);
  check bool "octopus balances" true
    (Cost_model.machine_cost Cost_model.Octopus empty
    < Cost_model.machine_cost Cost_model.Octopus packed);
  check bool "unscheduled dominates" true
    (Cost_model.unscheduled_cost > Cost_model.machine_cost Cost_model.Quincy empty)

(* ---------- firmament ---------- *)

let simple_apps () =
  [|
    Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 4.) ();
    Application.make ~id:1 ~n_containers:2 ~demand:(Resource.cpu_only 4.)
      ~anti_affinity_within:true ();
  |]

let test_firmament_slot_size () =
  check int "mean of batch" 3000 (Firmament.slot_size_millis [| mk 2.; mk 4. |]);
  check int "empty batch default" 1000 (Firmament.slot_size_millis [||])

let test_firmament_schedules_simple_batch () =
  let cl = cluster_of (simple_apps ()) ~n_machines:4 ~machine_cpu:32. in
  let batch = Array.init 8 (fun i -> mk ~id:i ~app:0 4.) in
  let sched = Firmament.make () in
  let o = sched.Scheduler.schedule cl batch in
  check int "all placed" 8 (List.length o.Scheduler.placed);
  check int "none undeployed" 0 (List.length o.Scheduler.undeployed)

let test_firmament_respects_hard_checks () =
  let cl = cluster_of (simple_apps ()) ~n_machines:2 ~machine_cpu:32. in
  let batch =
    Array.append
      (Array.init 4 (fun i -> mk ~id:i ~app:0 4.))
      (Array.init 2 (fun i -> mk ~id:(10 + i) ~app:1 4.))
  in
  let sched = Firmament.make () in
  let o = sched.Scheduler.schedule cl batch in
  ignore o;
  check int "no violating placements" 0
    (List.length (Cluster.current_violations cl))

let test_firmament_reschd_helps () =
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = 5 } in
  let w = Alibaba.generate params in
  let machines = max 4 (Workload.n_containers w / 10) in
  let undeployed i =
    let sched = Firmament.make ~config:{ Firmament.default with reschd = i } () in
    let r = Replay.run_workload sched w ~n_machines:machines in
    List.length r.Replay.outcome.Scheduler.undeployed
  in
  let u1 = undeployed 1 and u8 = undeployed 8 in
  check bool "reschd(8) <= reschd(1)" true (u8 <= u1)

let test_firmament_spreads_anti_within_apps () =
  (* Round-robin extraction must not dump a whole anti-within app on one
     machine: with enough machines and rounds, all siblings deploy. *)
  let apps =
    [|
      Application.make ~id:0 ~n_containers:6 ~demand:(Resource.cpu_only 4.)
        ~anti_affinity_within:true ();
    |]
  in
  let cl = cluster_of apps ~n_machines:8 ~machine_cpu:32. in
  let batch = Array.init 6 (fun i -> mk ~id:i ~app:0 4.) in
  let sched = Firmament.make ~config:{ Firmament.default with reschd = 8 } () in
  let o = sched.Scheduler.schedule cl batch in
  check int "all siblings placed" 6 (List.length o.Scheduler.placed);
  let machines =
    List.filter_map (fun (cid, _) -> Cluster.machine_of cl cid) o.Scheduler.placed
  in
  check int "six distinct machines" 6
    (List.length (List.sort_uniq compare machines))

let test_firmament_cost_scaling_solver () =
  (* both exact solvers must produce a working schedule; quality is within
     noise of each other on the same workload *)
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = 3 } in
  let w = Alibaba.generate params in
  let machines = max 4 (Workload.n_containers w / 10) in
  let undeployed solver =
    let sched = Firmament.make ~config:{ Firmament.default with solver } () in
    let r = Replay.run_workload sched w ~n_machines:machines in
    List.length r.Replay.outcome.Scheduler.undeployed
  in
  let ssp = undeployed "mincost" in
  let cs = undeployed "cost-scaling" in
  check bool "both solvers schedule comparably" true (abs (ssp - cs) <= 20)

let test_firmament_name () =
  check bool "name" true
    (Firmament.name { Firmament.default with reschd = 2 } = "Firmament-QUINCY(2)")

(* ---------- medea ---------- *)

let test_medea_exact_small_instance () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 8.)
        ~anti_affinity_within:true ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 8.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
  let batch = [| mk ~id:0 ~app:0 8.; mk ~id:1 ~app:0 8.; mk ~id:2 ~app:1 8. |] in
  let sched = Medea.make () in
  let o = sched.Scheduler.schedule cl batch in
  check int "all placed" 3 (List.length o.Scheduler.placed);
  check int "no violations with c=0" 0 (List.length (Cluster.current_violations cl));
  let m0 = Cluster.machine_of cl 0 and m1 = Cluster.machine_of cl 1 in
  check bool "siblings apart" true (m0 <> m1)

let test_medea_zero_c_never_violates () =
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = 9 } in
  let w = Alibaba.generate params in
  let machines = max 4 (Workload.n_containers w / 10) in
  let sched = Medea.make () in
  let r = Replay.run_workload sched w ~n_machines:machines in
  check int "no violating placements" 0
    (List.length (Cluster.current_violations r.Replay.cluster))

let test_medea_tolerance_allows_violations () =
  (* Figure 1 scenario: one S0 (anti to S1), two S1, one machine. With
     c = 0 Medea leaves S0 out; with c > 0 it co-locates and violates
     (paper Fig. 1(c)). *)
  let apps =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 8.)
        ~anti_affinity_across:[ 1 ] ();
      Application.make ~id:1 ~n_containers:2 ~demand:(Resource.cpu_only 8.)
        ~priority:1 ();
    |]
  in
  let batch =
    [|
      mk ~id:0 ~app:0 8.;
      mk ~id:1 ~app:1 ~priority:1 8.;
      mk ~id:2 ~app:1 ~priority:1 8.;
    |]
  in
  let strict = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  let o_strict = (Medea.make ()).Scheduler.schedule strict batch in
  check int "strict: S0 undeployed" 1 (List.length o_strict.Scheduler.undeployed);
  check int "strict: no violating placement" 0
    (List.length (Cluster.current_violations strict));
  let tolerant = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  let o_tol =
    (Medea.make
       ~config:{ Medea.default with weights = { Medea.a = 1.; b = 1.; c = 1. } }
       ())
      .Scheduler.schedule tolerant batch
  in
  check int "tolerant: everything placed" 3 (List.length o_tol.Scheduler.placed);
  check bool "tolerant: violation recorded" true
    (List.length (Cluster.current_violations tolerant) > 0)

let test_medea_defragments () =
  (* Seed a deliberately spread placement, then let Medea's heuristic path
     (batch too big for the exact ILP) defragment: lightly-used machines
     should empty out. *)
  let apps =
    [|
      Application.make ~id:0 ~n_containers:64 ~demand:(Resource.cpu_only 2.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:16 ~machine_cpu:32. in
  (* one 2-cpu container on each of 12 machines: 12 used, all light *)
  for i = 0 to 11 do
    ignore (Cluster.place cl (mk ~id:i ~app:0 2.) i)
  done;
  check int "spread before" 12 (Cluster.used_machines cl);
  (* an empty batch still triggers the defragmentation pass *)
  let sched =
    Medea.make ~config:{ Medea.default with exact_max_cells = 0 } ()
  in
  let batch = Array.init 4 (fun i -> mk ~id:(100 + i) ~app:0 2.) in
  let o = sched.Scheduler.schedule cl batch in
  check int "batch placed" 4 (List.length o.Scheduler.placed);
  check bool "fewer machines after defrag" true (Cluster.used_machines cl < 12)

let test_medea_name () =
  check bool "name" true (Medea.name Medea.default = "MEDEA(1,1,0)");
  check bool "fractional" true
    (Medea.name { Medea.default with weights = { Medea.a = 1.; b = 0.5; c = 0.5 } }
    = "MEDEA(1,0.5,0.5)")

(* ---------- gokube ---------- *)

let test_gokube_score_prefers_empty () =
  let cap = Resource.cpu_only 32. in
  let empty = Machine.create ~id:0 ~rack:0 ~group:0 ~capacity:cap in
  let busy = Machine.create ~id:1 ~rack:0 ~group:0 ~capacity:cap in
  Machine.place busy (mk ~id:5 16.);
  let c = mk 4. in
  check bool "spreads" true (Gokube.score empty c > Gokube.score busy c)

let test_gokube_filter_blocks_anti_affinity () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 4.)
        ~anti_affinity_within:true ();
    |]
  in
  let cl = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  let o =
    (Gokube.make ()).Scheduler.schedule cl
      [| mk ~id:0 ~app:0 4.; mk ~id:1 ~app:0 4. |]
  in
  check int "second sibling undeployed" 1 (List.length o.Scheduler.undeployed);
  check int "no violating placement" 0 (List.length (Cluster.current_violations cl));
  check bool "classified anti-affinity" true
    (List.exists Violation.is_anti_affinity o.Scheduler.violations)

let test_gokube_preempts_for_capacity_only () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 16.) ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 32.)
        ~priority:1 ();
      Application.make ~id:2 ~n_containers:1 ~demand:(Resource.cpu_only 4.)
        ~priority:1 ~anti_affinity_across:[ 0 ] ();
    |]
  in
  let cl = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  let fill = [| mk ~id:0 ~app:0 16.; mk ~id:1 ~app:0 16. |] in
  ignore ((Gokube.make ()).Scheduler.schedule cl fill);
  let o1 =
    (Gokube.make ()).Scheduler.schedule cl [| mk ~id:10 ~app:1 ~priority:1 32. |]
  in
  check bool "high-priority pod placed via preemption" true
    (List.mem_assoc 10 o1.Scheduler.placed);
  check bool "evictions happened" true (o1.Scheduler.preemptions > 0);
  Cluster.reset cl;
  ignore ((Gokube.make ()).Scheduler.schedule cl fill);
  let o2 =
    (Gokube.make ()).Scheduler.schedule cl [| mk ~id:20 ~app:2 ~priority:1 4. |]
  in
  check int "anti-affinity not preemptable" 1 (List.length o2.Scheduler.undeployed)

let test_gokube_uses_more_machines_than_aladdin () =
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = 13 } in
  let w = Alibaba.generate params in
  let machines = max 8 (Workload.n_containers w / 8) in
  let used sched =
    let r = Replay.run_workload sched w ~n_machines:machines in
    Cluster.used_machines r.Replay.cluster
  in
  check bool "spreading uses more machines" true
    (used (Gokube.make ()) >= used (Aladdin.Aladdin_scheduler.make ()))

(* ---------- classifier ---------- *)

let test_classifier () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 8.)
        ~anti_affinity_across:[ 1 ] ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 4.) ();
      Application.make ~id:2 ~n_containers:4 ~demand:(Resource.cpu_only 16.)
        ~priority:0 ();
    |]
  in
  let cl = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  ignore (Cluster.place cl (mk ~id:0 ~app:1 4.) 0);
  (match Classify.undeployed_violation cl (mk ~id:1 ~app:0 8.) with
  | Some v -> check bool "anti" true (Violation.is_anti_affinity v)
  | None -> Alcotest.fail "violation expected");
  ignore (Cluster.place cl (mk ~id:2 ~app:2 16.) 0);
  (match Classify.undeployed_violation cl (mk ~id:3 ~app:1 ~priority:2 20.) with
  | Some v -> check bool "priority" true (Violation.is_priority v)
  | None -> Alcotest.fail "violation expected");
  check bool "no violation for pure capacity" true
    (Classify.undeployed_violation cl (mk ~id:4 ~app:1 40.) = None)

(* ---------- degradation ladder ---------- *)

(* The ladder accepts the first rung that returns, so a rung that returns
   without placing anything hides every rung behind it. Each default rung,
   alone, must place a 50-container batch on an ample cluster. *)
let test_default_rungs_place () =
  let w = Alibaba.generate { (Alibaba.scaled 0.01) with Alibaba.seed = 42 } in
  let batch = Array.sub w.Workload.containers 0 50 in
  List.iter
    (fun rung ->
      let cl =
        Cluster.create
          (Workload.topology w ~n_machines:400)
          ~constraints:(Workload.constraint_set w)
      in
      let o = (Ladder.make ~rungs:[ rung ] ()).Scheduler.schedule cl batch in
      check int (rung ^ " places the batch") 50
        (List.length o.Scheduler.placed))
    Ladder.default_rungs

let () =
  Alcotest.run "baselines"
    [
      ( "cost-model",
        [
          Alcotest.test_case "names" `Quick test_cost_model_names;
          Alcotest.test_case "preferences" `Quick test_cost_model_preferences;
        ] );
      ( "firmament",
        [
          Alcotest.test_case "slot size" `Quick test_firmament_slot_size;
          Alcotest.test_case "simple batch" `Quick
            test_firmament_schedules_simple_batch;
          Alcotest.test_case "hard checks" `Quick test_firmament_respects_hard_checks;
          Alcotest.test_case "reschd helps" `Quick test_firmament_reschd_helps;
          Alcotest.test_case "spreads anti-within apps" `Quick
            test_firmament_spreads_anti_within_apps;
          Alcotest.test_case "cost-scaling solver" `Quick
            test_firmament_cost_scaling_solver;
          Alcotest.test_case "name" `Quick test_firmament_name;
        ] );
      ( "medea",
        [
          Alcotest.test_case "exact ILP path" `Quick test_medea_exact_small_instance;
          Alcotest.test_case "c=0 never violates" `Quick
            test_medea_zero_c_never_violates;
          Alcotest.test_case "Figure 1 tolerance" `Quick
            test_medea_tolerance_allows_violations;
          Alcotest.test_case "defragmentation" `Quick test_medea_defragments;
          Alcotest.test_case "name" `Quick test_medea_name;
        ] );
      ( "gokube",
        [
          Alcotest.test_case "score spreads" `Quick test_gokube_score_prefers_empty;
          Alcotest.test_case "anti-affinity filter" `Quick
            test_gokube_filter_blocks_anti_affinity;
          Alcotest.test_case "preemption capacity-only" `Quick
            test_gokube_preempts_for_capacity_only;
          Alcotest.test_case "spreads across machines" `Quick
            test_gokube_uses_more_machines_than_aladdin;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "every default rung places" `Quick
            test_default_rungs_place;
        ] );
      ("classify", [ Alcotest.test_case "causes" `Quick test_classifier ]);
    ]
