(* Robustness-layer tests: cooperative deadlines in the solver hot loops,
   the scheduler-level degradation ladder (with
   priority-ordered shedding), the post-batch invariant auditor, the
   crash-recovery journal, and the revocation edge cases in the fault
   harness and transaction middleware. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk ?(id = 0) ?(app = 0) ?(priority = 0) ?(arrival = 0) cpu =
  Container.make ~id ~app ~demand:(Resource.cpu_only cpu) ~priority ~arrival

let fresh_cluster w ~n_machines =
  Cluster.create
    (Workload.topology w ~n_machines)
    ~constraints:(Workload.constraint_set w)

let machines_for w ~headroom =
  let total =
    (Resource.to_array (Workload.total_demand w)).(Resource.cpu_dim)
  in
  let per =
    (Resource.to_array w.Workload.machine_capacity).(Resource.cpu_dim)
  in
  max 4 (int_of_float (ceil (headroom *. float_of_int total /. float_of_int per)))

let small_workload seed =
  Alibaba.generate { (Alibaba.scaled 0.004) with Alibaba.seed = seed }

let uniform_workload ?(n = 12) () =
  let apps =
    [| Application.make ~id:0 ~n_containers:n ~demand:(Resource.cpu_only 4.) () |]
  in
  let containers = Array.init n (fun i -> mk ~id:i ~app:0 4.) in
  Workload.make ~apps ~containers ~machine_capacity:(Resource.cpu_only 8.)

let first_fit =
  {
    Scheduler.name = "first-fit";
    schedule =
      (fun cluster batch ->
        let undeployed = ref [] in
        Array.iter
          (fun c ->
            let n = Cluster.n_machines cluster in
            let rec go mid =
              if mid >= n then undeployed := c :: !undeployed
              else
                match Cluster.place cluster c mid with
                | Ok () -> ()
                | Error _ -> go (mid + 1)
            in
            go 0)
          batch;
        {
          Scheduler.empty_outcome with
          Scheduler.placed =
            Array.to_list batch
            |> List.filter_map (fun (c : Container.t) ->
                   Option.map
                     (fun m -> (c.Container.id, m))
                     (Cluster.machine_of cluster c.Container.id));
          undeployed = List.rev !undeployed;
        });
  }

(* A 0 -> 1 -> 2 -> 3 line network, max flow 5. *)
let line_net () =
  let g = Flownet.Graph.create 4 in
  ignore (Flownet.Graph.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:1);
  ignore (Flownet.Graph.add_arc g ~src:1 ~dst:2 ~cap:5 ~cost:1);
  ignore (Flownet.Graph.add_arc g ~src:2 ~dst:3 ~cap:5 ~cost:1);
  g

(* ---------- deadline core ---------- *)

let test_deadline_steps () =
  let d = Flownet.Deadline.make ~steps:5 () in
  for _ = 1 to 5 do
    Flownet.Deadline.tick d "t"
  done;
  check bool "within budget" false (Flownet.Deadline.expired d);
  (match Flownet.Deadline.tick d "t" with
  | () -> Alcotest.fail "6th tick must expire a 5-step budget"
  | exception Flownet.Deadline.Expired { site; _ } ->
      check Alcotest.string "expiry names the site" "t" site);
  check bool "expiry is sticky" true (Flownet.Deadline.expired d);
  check bool "later ticks keep raising" true
    (match Flownet.Deadline.tick d "t2" with
    | () -> false
    | exception Flownet.Deadline.Expired _ -> true)

let test_deadline_wall_pre_expired () =
  let d = Flownet.Deadline.make ~wall_ms:1e-6 () in
  check bool "first tick samples the clock" true
    (match Flownet.Deadline.tick d "w" with
    | () -> false
    | exception Flownet.Deadline.Expired _ -> true)

let test_deadline_unbounded () =
  let d = Flownet.Deadline.make () in
  for _ = 1 to 10_000 do
    Flownet.Deadline.tick d "free"
  done;
  check bool "never expires" false (Flownet.Deadline.expired d)

let test_ambient_nesting () =
  check bool "no ambient by default" true (Flownet.Deadline.ambient () = None);
  let outer = Flownet.Deadline.make ~steps:100 () in
  let inner = Flownet.Deadline.make ~steps:50 () in
  Flownet.Deadline.with_ambient outer (fun () ->
      check bool "outer armed" true (Flownet.Deadline.ambient () = Some outer);
      Flownet.Deadline.with_ambient inner (fun () ->
          check bool "inner shadows" true
            (Flownet.Deadline.ambient () = Some inner));
      check bool "outer restored" true
        (Flownet.Deadline.ambient () = Some outer);
      check bool "explicit beats ambient" true
        (Flownet.Deadline.resolve (Some inner) = Some inner);
      check bool "ambient fills in" true
        (Flownet.Deadline.resolve None = Some outer));
  check bool "cleared on exit" true (Flownet.Deadline.ambient () = None)

(* ---------- deadline at the solver boundary ---------- *)

let test_mincost_typed_error () =
  let g = line_net () in
  let c = Obs.counter "deadline.exceeded" in
  let e0 = Obs.count c in
  (match
     Flownet.Mincost.run
       ~deadline:(Flownet.Deadline.make ~steps:0 ())
       g ~src:0 ~dst:3
   with
  | Error (Flownet.Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "0-step budget cannot complete a solve"
  | Error e -> Alcotest.fail ("wrong error: " ^ Flownet.Error.to_string e));
  check bool "deadline.exceeded counted" true (Obs.count c > e0)

let test_registry_converts_raising_backends () =
  List.iter
    (fun name ->
      let m = Option.get (Flownet.Registry.find name) in
      let g = line_net () in
      match
        Flownet.Registry.solve m
          ~deadline:(Flownet.Deadline.make ~steps:0 ())
          g ~src:0 ~dst:3
      with
      | Error (Flownet.Error.Deadline_exceeded _) -> ()
      | Ok _ -> Alcotest.fail (name ^ ": 0-step budget cannot complete")
      | Error e ->
          Alcotest.fail (name ^ ": wrong error " ^ Flownet.Error.to_string e))
    (Flownet.Registry.names ())

let test_ambient_expiry_propagates_as_exception () =
  let m = Option.get (Flownet.Registry.find "cost-scaling") in
  let g = line_net () in
  let d = Flownet.Deadline.make ~steps:0 () in
  check bool "ambient expiry escapes for the ladder" true
    (match
       Flownet.Deadline.with_ambient d (fun () ->
           Flownet.Registry.solve m g ~src:0 ~dst:3)
     with
    | exception Flownet.Deadline.Expired _ -> true
    | Ok _ | Error _ -> false)

let test_solve_completes_under_roomy_deadline () =
  let g = line_net () in
  match
    Flownet.Mincost.run
      ~deadline:(Flownet.Deadline.make ~steps:100_000 ~wall_ms:60_000. ())
      g ~src:0 ~dst:3
  with
  | Ok s ->
      check int "flow" 5 s.Flownet.Mincost.flow;
      check int "cost" 15 s.Flownet.Mincost.cost
  | Error e -> Alcotest.fail (Flownet.Error.to_string e)

(* ---------- scheduler ladder middleware ---------- *)

(* Places one container, then hits the ambient deadline — the partial
   placement must be rolled back before the next rung runs. *)
let busy_then_expire =
  {
    Scheduler.name = "busy";
    schedule =
      (fun cluster batch ->
        if Array.length batch > 0 then
          ignore (Cluster.place cluster batch.(0) 0);
        Flownet.Deadline.check_ambient "busy.loop";
        (* past the deadline probe: finish the rest like first-fit *)
        let rest = Array.sub batch 1 (max 0 (Array.length batch - 1)) in
        let o = first_fit.Scheduler.schedule cluster rest in
        { o with Scheduler.placed = (batch.(0).Container.id, 0) :: o.Scheduler.placed });
  }

let test_with_deadline_escalates_and_restores () =
  let w = uniform_workload () in
  let batch = w.Workload.containers in
  let reference = fresh_cluster w ~n_machines:6 in
  let o_ref = first_fit.Scheduler.schedule reference batch in
  let c_esc = Obs.counter "ladder.escalations" in
  let c_win = Obs.counter "ladder.rung.greedy" in
  let e0 = Obs.count c_esc and w0 = Obs.count c_win in
  let cluster = fresh_cluster w ~n_machines:6 in
  let sched =
    Scheduler.with_deadline ~deadline_ms:1e-6
      [ ("slow", busy_then_expire); ("greedy", first_fit) ]
  in
  let o = sched.Scheduler.schedule cluster batch in
  check int "escalated once" (e0 + 1) (Obs.count c_esc);
  check int "greedy rung won" (w0 + 1) (Obs.count c_win);
  check int "same placements as pure greedy"
    (List.length o_ref.Scheduler.placed)
    (List.length o.Scheduler.placed);
  check bool "cluster state identical to pure greedy" true
    (List.sort compare (Cluster.placements cluster)
    = List.sort compare (Cluster.placements reference))

let test_with_deadline_unbudgeted_first_rung_wins () =
  let w = uniform_workload () in
  let cluster = fresh_cluster w ~n_machines:6 in
  let sched =
    Scheduler.with_deadline
      [ ("slow", busy_then_expire); ("greedy", first_fit) ]
  in
  (* no deadline: check_ambient is a no-op, the first rung completes *)
  let o = sched.Scheduler.schedule cluster w.Workload.containers in
  check int "all placed by first rung" 12 (List.length o.Scheduler.placed)

(* Expires while the batch is bigger than 2 containers: the ladder must
   shed lowest-priority halves until the remainder fits the budget. *)
let expire_on_big_batches =
  {
    Scheduler.name = "cap2";
    schedule =
      (fun cluster batch ->
        if Array.length batch > 2 then
          Flownet.Deadline.check_ambient "cap2.loop";
        first_fit.Scheduler.schedule cluster batch);
  }

let test_with_deadline_sheds_lowest_priority () =
  let apps =
    [| Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 4.) () |]
  in
  let containers =
    Array.init 8 (fun i -> mk ~id:i ~app:0 ~priority:i ~arrival:i 4.)
  in
  let w =
    Workload.make ~apps ~containers ~machine_capacity:(Resource.cpu_only 8.)
  in
  let cluster = fresh_cluster w ~n_machines:6 in
  let c_shed = Obs.counter "ladder.shed_containers" in
  let s0 = Obs.count c_shed in
  let sched =
    Scheduler.with_deadline ~deadline_ms:1e-6
      [ ("cap2", expire_on_big_batches) ]
  in
  let o = sched.Scheduler.schedule cluster containers in
  check int "shed 8 -> 4 -> 2" (s0 + 6) (Obs.count c_shed);
  check int "the two survivors placed" 2 (List.length o.Scheduler.placed);
  check int "everything else reported undeployed" 6
    (List.length o.Scheduler.undeployed);
  let placed_ids = List.map fst o.Scheduler.placed in
  check bool "survivors are the highest-priority containers" true
    (List.sort compare placed_ids = [ 6; 7 ])

let test_with_deadline_zero_budget_terminates () =
  let w = uniform_workload () in
  let cluster = fresh_cluster w ~n_machines:6 in
  let always_expire =
    {
      Scheduler.name = "never";
      schedule =
        (fun _ _ ->
          Flownet.Deadline.check_ambient "never.loop";
          Scheduler.empty_outcome);
    }
  in
  let sched =
    Scheduler.with_deadline ~deadline_ms:1e-6 [ ("never", always_expire) ]
  in
  let o = sched.Scheduler.schedule cluster w.Workload.containers in
  check int "degenerates to all-undeployed, no hang" 12
    (List.length o.Scheduler.undeployed);
  check int "nothing placed" 0 (List.length o.Scheduler.placed)

(* ---------- end-to-end: aladdin first rung, gokube terminal ---------- *)

let test_aladdin_ladder_completes_under_tight_budget () =
  let w = small_workload 35 in
  let n_machines = machines_for w ~headroom:1.3 in
  let c_exceeded = Obs.counter "deadline.exceeded" in
  let c_gokube = Obs.counter "ladder.rung.gokube" in
  let x0 = Obs.count c_exceeded and g0 = Obs.count c_gokube in
  let sched =
    Ladder.make ~deadline_ms:0.001
      ~rungs:[ "mincost"; "gokube" ]
      ~first:("aladdin", Aladdin.Aladdin_scheduler.make ())
      ()
  in
  let r =
    Replay.run ~batch:24 sched
      ~cluster:(fresh_cluster w ~n_machines)
      ~containers:w.Workload.containers
  in
  check int "every container accounted for" r.Replay.n_submitted
    (List.length r.Replay.outcome.Scheduler.placed
    + List.length r.Replay.outcome.Scheduler.undeployed);
  check bool "deadlines actually expired" true (Obs.count c_exceeded > x0);
  check bool "terminal greedy rung carried batches" true
    (Obs.count c_gokube > g0)

(* ---------- auditor ---------- *)

let two_conflicting_apps () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 2.) ();
      Application.make ~id:1 ~n_containers:2 ~demand:(Resource.cpu_only 2.)
        ~anti_affinity_across:[ 0 ] ();
    |]
  in
  let containers =
    [| mk ~id:0 ~app:0 2.; mk ~id:1 ~app:1 ~arrival:1 2. |]
  in
  Workload.make ~apps ~containers ~machine_capacity:(Resource.cpu_only 8.)

let outcome_placed cluster batch =
  {
    Scheduler.empty_outcome with
    Scheduler.placed =
      Array.to_list batch
      |> List.filter_map (fun (c : Container.t) ->
             Option.map
               (fun m -> (c.Container.id, m))
               (Cluster.machine_of cluster c.Container.id));
  }

let test_audit_repairs_anti_affinity () =
  let w = two_conflicting_apps () in
  let cluster = fresh_cluster w ~n_machines:3 in
  let batch = w.Workload.containers in
  (* force the conflicting pair onto one machine *)
  Array.iter
    (fun c ->
      match Cluster.place ~force:true cluster c 0 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "fixture placement failed")
    batch;
  let outcome = outcome_placed cluster batch in
  let found = Audit.check cluster ~batch ~outcome in
  check bool "violation detected" true
    (List.exists (function Audit.Anti_affinity _ -> true | _ -> false) found);
  let amended, unrepaired = Audit.run cluster ~batch ~outcome in
  check int "no unrepaired violations" 0 (List.length unrepaired);
  check int "both containers still placed" 2
    (List.length amended.Scheduler.placed);
  check bool "now on distinct machines" true
    (Cluster.machine_of cluster 0 <> Cluster.machine_of cluster 1);
  check int "post-repair state is clean" 0
    (List.length (Audit.check cluster ~batch ~outcome:amended))

let test_audit_repairs_offline_placement () =
  let w = uniform_workload ~n:2 () in
  let cluster = fresh_cluster w ~n_machines:3 in
  let batch = w.Workload.containers in
  Array.iter (fun c -> ignore (Cluster.place cluster c 0)) batch;
  Cluster.set_offline cluster 0 true;
  let outcome = outcome_placed cluster batch in
  let found = Audit.check cluster ~batch ~outcome in
  check int "one violation per stranded container" 2 (List.length found);
  let amended, unrepaired = Audit.run cluster ~batch ~outcome in
  check int "repaired" 0 (List.length unrepaired);
  check int "both re-placed" 2 (List.length amended.Scheduler.placed);
  List.iter
    (fun (cid, mid) ->
      check bool (Printf.sprintf "container %d off the dead machine" cid) true
        (mid <> 0))
    amended.Scheduler.placed

let test_audit_finds_lost_container () =
  let w = uniform_workload ~n:2 () in
  let cluster = fresh_cluster w ~n_machines:2 in
  let batch = w.Workload.containers in
  (* the scheduler "forgot" container 1: neither placed nor undeployed *)
  ignore (Cluster.place cluster batch.(0) 0);
  let outcome = outcome_placed cluster batch in
  let found = Audit.check cluster ~batch ~outcome in
  check bool "lost container detected" true
    (List.exists
       (function
         | Audit.Lost_container { container } -> container.Container.id = 1
         | _ -> false)
       found);
  let amended, unrepaired = Audit.run cluster ~batch ~outcome in
  check int "repaired" 0 (List.length unrepaired);
  check int "recovered into a placement" 2
    (List.length amended.Scheduler.placed)

let test_audit_repairs_priority_inversion () =
  let apps =
    [| Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 4.) () |]
  in
  let low = mk ~id:0 ~app:0 ~priority:0 4. in
  let high = mk ~id:1 ~app:0 ~priority:5 ~arrival:1 8. in
  let w =
    Workload.make ~apps ~containers:[| low; high |]
      ~machine_capacity:(Resource.cpu_only 8.)
  in
  let cluster = fresh_cluster w ~n_machines:1 in
  let batch = [| low; high |] in
  ignore (Cluster.place cluster low 0);
  let outcome =
    {
      Scheduler.empty_outcome with
      Scheduler.placed = [ (0, 0) ];
      undeployed = [ high ];
    }
  in
  let found = Audit.check cluster ~batch ~outcome in
  check bool "inversion detected" true
    (List.exists
       (function Audit.Priority_inversion _ -> true | _ -> false)
       found);
  let amended, unrepaired = Audit.run cluster ~batch ~outcome in
  check int "no unrepaired violations" 0 (List.length unrepaired);
  check bool "high-priority container seated" true
    (Cluster.machine_of cluster 1 = Some 0);
  check bool "low-priority container displaced" true
    (Cluster.machine_of cluster 0 = None);
  check bool "displacement reported undeployed" true
    (List.exists
       (fun (c : Container.t) -> c.Container.id = 0)
       amended.Scheduler.undeployed)

let test_audit_clean_run_no_false_positives () =
  let w = uniform_workload () in
  let cluster = fresh_cluster w ~n_machines:6 in
  let c_viol = Obs.counter "audit.violations" in
  let v0 = Obs.count c_viol in
  let sched = Audit.wrap first_fit in
  let o = sched.Scheduler.schedule cluster w.Workload.containers in
  check int "no violations flagged" v0 (Obs.count c_viol);
  check int "outcome untouched" 12 (List.length o.Scheduler.placed)

let test_audit_with_migration_repair () =
  let w = two_conflicting_apps () in
  let cluster = fresh_cluster w ~n_machines:3 in
  let batch = w.Workload.containers in
  Array.iter
    (fun c -> ignore (Cluster.place ~force:true cluster c 0))
    batch;
  let outcome = outcome_placed cluster batch in
  let amended, unrepaired =
    Audit.run
      ~place:(fun cl c -> Aladdin.Migration.repair_placement cl c)
      cluster ~batch ~outcome
  in
  check int "migration policy repairs too" 0 (List.length unrepaired);
  check int "both placed" 2 (List.length amended.Scheduler.placed)

(* ---------- fault harness: revocation + stream position ---------- *)

let test_pick_revocation_skips_offline () =
  Fault.install (Fault.make ~machine_revocation:1.0 ~seed:9 ());
  Fun.protect ~finally:Fault.clear (fun () ->
      let c = Obs.counter "fault.revoked_machines" in
      let v0 = Obs.count c in
      for _ = 1 to 20 do
        match
          Fault.pick_revocation ~is_offline:(fun m -> m = 0) ~n_machines:2 ()
        with
        | Some m -> check int "never the offline machine" 1 m
        | None -> Alcotest.fail "rate 1.0 must fire"
      done;
      check int "each real revocation counted once" (v0 + 20) (Obs.count c);
      (match Fault.pick_revocation ~is_offline:(fun _ -> true) ~n_machines:2 () with
      | None -> ()
      | Some _ -> Alcotest.fail "all machines down: nothing to revoke");
      check int "no-op revocation not counted" (v0 + 20) (Obs.count c))

let test_fault_stream_fast_forward () =
  let cfg = Fault.make ~machine_revocation:0.5 ~seed:77 () in
  Fault.install cfg;
  let picks n =
    List.init n (fun _ -> Fault.pick_revocation ~n_machines:8 ())
  in
  let _first = picks 6 in
  let rest_ref = picks 6 in
  (* replay: reinstall, fast-forward past the first 6 picks, and the
     stream must continue identically *)
  Fault.install cfg;
  let _ = picks 6 in
  let pos = Option.get (Fault.stream_position ()) in
  Fault.install cfg;
  let d, f, k = pos in
  Fault.fast_forward ~kill_countdown:k ~draws:d ~failures_left:f ();
  let rest = picks 6 in
  Fault.clear ();
  check bool "fast-forwarded stream matches" true (rest = rest_ref)

(* ---------- with_transaction: revocation lands mid-batch ---------- *)

(* The edge admitted in the restore comment: a machine goes offline (and
   is drained) while a batch is in flight, then the batch fails. The
   restore cannot re-seat containers on the dead machine — they must be
   counted as restore drops, while every other pre-batch placement comes
   back exactly. *)
let test_restore_after_midbatch_revocation () =
  let w = uniform_workload () in
  let cluster = fresh_cluster w ~n_machines:4 in
  let cs = w.Workload.containers in
  ignore (Cluster.place cluster cs.(0) 0);
  ignore (Cluster.place cluster cs.(1) 0);
  ignore (Cluster.place cluster cs.(2) 1);
  ignore (Cluster.place cluster cs.(3) 1);
  let revoker =
    {
      Scheduler.name = "revoker";
      schedule =
        (fun cl _batch ->
          Cluster.set_offline cl 0 true;
          ignore (Cluster.drain cl 0);
          raise (Fault.Injected "mid-batch revocation"));
    }
  in
  let t =
    Scheduler.with_transaction ~prefix:"regress"
      ~recoverable:Scheduler.faults_recoverable revoker
  in
  let c_drops = Obs.counter "regress.restore_drops" in
  let d0 = Obs.count c_drops in
  let wave = Array.sub cs 4 4 in
  let o = t.Scheduler.schedule cluster wave in
  check int "batch rejected wholesale" 4 (List.length o.Scheduler.undeployed);
  check int "containers on the dead machine dropped" (d0 + 2)
    (Obs.count c_drops);
  check int "dead machine left empty" 0
    (Machine.n_containers (Cluster.machine cluster 0));
  check int "surviving machine restored" 2
    (Machine.n_containers (Cluster.machine cluster 1));
  check bool "machine stays offline through restore" true
    (Cluster.is_offline cluster 0)

(* ---------- journal ---------- *)

let test_journal_roundtrip_and_torn_tail () =
  let path = Filename.temp_file "aladdin_journal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Journal.create path in
      let c1 =
        {
          Journal.next_pos = 16;
          placements = [ (0, 3); (1, 2) ];
          offline = [ 5 ];
          fault = Some (42, -1, 3);
          serve = Some (16, 0);
        }
      in
      let c2 =
        {
          Journal.next_pos = 32;
          placements = [ (0, 3); (1, 2); (2, 0) ];
          offline = [ 5; 1 ];
          fault = None;
          serve = None;
        }
      in
      Journal.append j c1;
      Journal.append j c2;
      Journal.close j;
      check bool "roundtrip" true (Journal.load path = [ c1; c2 ]);
      (* simulate a crash mid-write: a torn, checksum-less record *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "C 48 F 99 -1 0 O 0 P 2 7";
      close_out oc;
      check bool "torn tail dropped" true (Journal.load path = [ c1; c2 ]);
      check bool "last is the valid commit" true (Journal.last path = Some c2))

let test_journal_kill_resume_reproduces_placements () =
  let w = small_workload 42 in
  let n_machines = machines_for w ~headroom:1.3 in
  let base () =
    Fault.make ~machine_revocation:0.4 ~solver_step_failure:0.05 ~seed:42 ()
  in
  (* uninterrupted reference run *)
  Fault.install (base ());
  let r_ref =
    Fun.protect ~finally:Fault.clear (fun () ->
        Replay.run ~batch:16
          (Aladdin.Aladdin_scheduler.make ())
          ~cluster:(fresh_cluster w ~n_machines)
          ~containers:w.Workload.containers)
  in
  let fp_ref =
    Journal.placement_fingerprint (Cluster.placements r_ref.Replay.cluster)
  in
  (* journaled run, killed after the third commit *)
  let path = Filename.temp_file "aladdin_journal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Journal.create path in
      Fault.install { (base ()) with Fault.process_kill_after = 2 };
      (match
         Replay.run ~batch:16 ~journal:j
           (Aladdin.Aladdin_scheduler.make ())
           ~cluster:(fresh_cluster w ~n_machines)
           ~containers:w.Workload.containers
       with
      | _ -> Alcotest.fail "the kill probe must fire"
      | exception Fault.Killed _ -> ());
      Journal.close j;
      Fault.clear ();
      (* resume from the last durable commit *)
      let commit = Option.get (Journal.last path) in
      check bool "three waves committed before death" true
        (commit.Journal.next_pos = 48);
      let c_resumes = Obs.counter "journal.resumes" in
      let r0 = Obs.count c_resumes in
      Fault.install (base ());
      let j2 = Journal.open_append path in
      let r2 =
        Fun.protect
          ~finally:(fun () ->
            Fault.clear ();
            Journal.close j2)
          (fun () ->
            Replay.run ~batch:16 ~journal:j2 ~resume:commit
              (Aladdin.Aladdin_scheduler.make ())
              ~cluster:(fresh_cluster w ~n_machines)
              ~containers:w.Workload.containers)
      in
      check int "resume counted" (r0 + 1) (Obs.count c_resumes);
      check int "resumed placements = uninterrupted placements" fp_ref
        (Journal.placement_fingerprint
           (Cluster.placements r2.Replay.cluster)))

(* A garbled record *mid-file* is handled like the torn tail — typed
   corruption, suffix dropped, resume from the last good commit. The old
   decoder hit [failwith "journal keyword mismatch"] on exactly this
   shape (valid checksum, displaced keyword), defeating crash recovery on
   a damaged journal. *)
let journal_checksum s =
  let h = ref 5381 in
  String.iter
    (fun ch -> h := (((!h lsl 5) + !h) + Char.code ch) land 0x3FFFFFFF)
    s;
  !h

let test_journal_midfile_corruption_resumes_from_last_good () =
  let w = small_workload 9 in
  let n_machines = machines_for w ~headroom:1.3 in
  let r_ref =
    Replay.run ~batch:16
      (Aladdin.Aladdin_scheduler.make ())
      ~cluster:(fresh_cluster w ~n_machines)
      ~containers:w.Workload.containers
  in
  let fp_ref =
    Journal.placement_fingerprint (Cluster.placements r_ref.Replay.cluster)
  in
  let path = Filename.temp_file "aladdin_journal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Journal.create path in
      ignore
        (Replay.run ~batch:16 ~journal:j
           (Aladdin.Aladdin_scheduler.make ())
           ~cluster:(fresh_cluster w ~n_machines)
           ~containers:w.Workload.containers);
      Journal.close j;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun s -> s <> "")
      in
      let n = List.length lines in
      check bool "several commits journaled" true (n >= 3);
      let mid = n / 2 in
      (* garble the framing keyword of the middle record but keep its
         checksum valid: the exact shape the old failwith died on *)
      let garble line =
        let body =
          match String.rindex_opt line '#' with
          | Some i -> String.sub line 0 (i - 1)
          | None -> Alcotest.fail "record has no checksum"
        in
        let b = Bytes.of_string body in
        let rec find i =
          if i + 2 >= Bytes.length b then Alcotest.fail "no F keyword"
          else if
            Bytes.get b i = ' '
            && Bytes.get b (i + 1) = 'F'
            && Bytes.get b (i + 2) = ' '
          then i + 1
          else find (i + 1)
        in
        Bytes.set b (find 0) 'X';
        let body = Bytes.to_string b in
        Printf.sprintf "%s # %d" body (journal_checksum body)
      in
      let lines = List.mapi (fun i l -> if i = mid then garble l else l) lines in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      (match Journal.decode (List.nth lines mid) with
      | Error (Journal.Bad_keyword { expected = "F"; got = "X" }) -> ()
      | Error c ->
          Alcotest.failf "wrong corruption class: %s"
            (Format.asprintf "%a" Journal.pp_corruption c)
      | Ok _ -> Alcotest.fail "tampered record decoded");
      let c_corrupt = Obs.counter "journal.corrupt_records" in
      let c_dropped = Obs.counter "journal.dropped_commits" in
      let b_corrupt = Obs.count c_corrupt in
      let b_dropped = Obs.count c_dropped in
      let commits = Journal.load path in
      check int "only the pre-corruption prefix survives" mid
        (List.length commits);
      check int "corrupt record counted" (b_corrupt + 1) (Obs.count c_corrupt);
      check int "dropped suffix commits counted" (b_dropped + (n - mid - 1))
        (Obs.count c_dropped);
      let commit = Option.get (Journal.last path) in
      check int "resume point is the last good commit" (16 * mid)
        commit.Journal.next_pos;
      let r2 =
        Replay.run ~batch:16 ~resume:commit
          (Aladdin.Aladdin_scheduler.make ())
          ~cluster:(fresh_cluster w ~n_machines)
          ~containers:w.Workload.containers
      in
      check int "resumed run reproduces uninterrupted placements" fp_ref
        (Journal.placement_fingerprint
           (Cluster.placements r2.Replay.cluster)))

let () =
  Alcotest.run "robustness"
    [
      ( "deadline",
        [
          Alcotest.test_case "step budget" `Quick test_deadline_steps;
          Alcotest.test_case "wall pre-expired" `Quick
            test_deadline_wall_pre_expired;
          Alcotest.test_case "unbounded" `Quick test_deadline_unbounded;
          Alcotest.test_case "ambient nesting" `Quick test_ambient_nesting;
        ] );
      ( "solver-deadline",
        [
          Alcotest.test_case "mincost typed error" `Quick
            test_mincost_typed_error;
          Alcotest.test_case "registry converts all backends" `Quick
            test_registry_converts_raising_backends;
          Alcotest.test_case "ambient expiry propagates" `Quick
            test_ambient_expiry_propagates_as_exception;
          Alcotest.test_case "roomy budget completes" `Quick
            test_solve_completes_under_roomy_deadline;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "escalates and restores" `Quick
            test_with_deadline_escalates_and_restores;
          Alcotest.test_case "unbudgeted first rung wins" `Quick
            test_with_deadline_unbudgeted_first_rung_wins;
          Alcotest.test_case "sheds lowest priority" `Quick
            test_with_deadline_sheds_lowest_priority;
          Alcotest.test_case "zero budget terminates" `Quick
            test_with_deadline_zero_budget_terminates;
          Alcotest.test_case "aladdin+gokube under tight budget" `Quick
            test_aladdin_ladder_completes_under_tight_budget;
        ] );
      ( "audit",
        [
          Alcotest.test_case "repairs anti-affinity" `Quick
            test_audit_repairs_anti_affinity;
          Alcotest.test_case "repairs offline placement" `Quick
            test_audit_repairs_offline_placement;
          Alcotest.test_case "finds lost container" `Quick
            test_audit_finds_lost_container;
          Alcotest.test_case "repairs priority inversion" `Quick
            test_audit_repairs_priority_inversion;
          Alcotest.test_case "clean run, no false positives" `Quick
            test_audit_clean_run_no_false_positives;
          Alcotest.test_case "migration repair policy" `Quick
            test_audit_with_migration_repair;
        ] );
      ( "fault",
        [
          Alcotest.test_case "revocation skips offline" `Quick
            test_pick_revocation_skips_offline;
          Alcotest.test_case "stream fast-forward" `Quick
            test_fault_stream_fast_forward;
          Alcotest.test_case "restore after mid-batch revocation" `Quick
            test_restore_after_midbatch_revocation;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip + torn tail" `Quick
            test_journal_roundtrip_and_torn_tail;
          Alcotest.test_case "kill/resume reproduces placements" `Quick
            test_journal_kill_resume_reproduces_placements;
          Alcotest.test_case "mid-file corruption drops suffix, resumes"
            `Quick test_journal_midfile_corruption_resumes_from_last_good;
        ] );
    ]
