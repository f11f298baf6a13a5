(* Tests for the Aladdin core: priority weights (Eq. 3-5), the tiered flow
   graph, Algorithm 1's search with IL/DL, migration & preemption (Fig. 3
   and Fig. 7), and the end-to-end scheduler invariants. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let cap32 = Resource.cpu_only 32.

let mk ?(id = 0) ?(app = 0) ?(priority = 0) ?(arrival = 0) cpu =
  Container.make ~id ~app ~demand:(Resource.cpu_only cpu) ~priority ~arrival

let cluster_of apps ~n_machines ~machine_cpu =
  let topo =
    Topology.homogeneous ~machines_per_rack:2 ~racks_per_group:2 ~n_machines
      ~capacity:(Resource.cpu_only machine_cpu) ()
  in
  Cluster.create topo ~constraints:(Constraint_set.of_apps apps)

(* ---------- weights ---------- *)

let test_weights_eq5_guarantee () =
  let batch =
    [| mk ~id:0 ~priority:0 16.; mk ~id:1 ~priority:1 0.5; mk ~id:2 ~priority:2 1. |]
  in
  let w = Aladdin.Weights.compute batch ~capacity:cap32 in
  check bool "Eq.5 holds" true (Aladdin.Weights.satisfies_eq5 w batch);
  check int "lowest weight is 1" 1 (Aladdin.Weights.weight w ~priority:0);
  check bool "monotone" true
    (Aladdin.Weights.weight w ~priority:2 > Aladdin.Weights.weight w ~priority:1)

let test_weights_fixed_base () =
  let batch = [| mk ~id:0 ~priority:0 1.; mk ~id:1 ~priority:1 1.; mk ~id:2 ~priority:2 1. |] in
  let w = Aladdin.Weights.fixed ~base:16 batch ~capacity:cap32 in
  check int "w0" 1 (Aladdin.Weights.weight w ~priority:0);
  check int "w1" 16 (Aladdin.Weights.weight w ~priority:1);
  check int "w2" 256 (Aladdin.Weights.weight w ~priority:2);
  Alcotest.check_raises "base too small"
    (Invalid_argument "Weights.fixed: base must be >= 2") (fun () ->
      ignore (Aladdin.Weights.fixed ~base:1 batch ~capacity:cap32))

let test_weights_magnitude () =
  let w = Aladdin.Weights.compute [| mk 16. |] ~capacity:cap32 in
  check int "16 of 32 cpu = 500 per-mille" 500
    (Aladdin.Weights.magnitude w (mk 16.));
  check bool "tiny demand still >= 1" true
    (Aladdin.Weights.magnitude w (mk 0.001) >= 1)

let prop_weights_eq5_random =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (pair (int_range 0 3) (oneofl [ 0.5; 1.; 2.; 4.; 8.; 16. ])))
  in
  QCheck.Test.make ~count:300 ~name:"Eq.5 guarantee on random batches"
    (QCheck.make gen) (fun specs ->
      let batch =
        Array.of_list
          (List.mapi (fun i (p, cpu) -> mk ~id:i ~priority:p cpu) specs)
      in
      let w = Aladdin.Weights.compute batch ~capacity:cap32 in
      Aladdin.Weights.satisfies_eq5 w batch)

(* ---------- flow graph ---------- *)

let test_flow_graph_edges () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:4 ~demand:(Resource.cpu_only 1.) ();
      Application.make ~id:1 ~n_containers:2 ~demand:(Resource.cpu_only 2.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:8 ~machine_cpu:32. in
  let batch =
    Array.append
      (Array.init 4 (fun i -> mk ~id:i ~app:0 1.))
      (Array.init 2 (fun i -> mk ~id:(4 + i) ~app:1 2.))
  in
  let fg = Aladdin.Flow_graph.build cl batch in
  Alcotest.(check (list int)) "apps" [ 0; 1 ] (Aladdin.Flow_graph.app_ids fg);
  Alcotest.(check (list int)) "containers of app 0" [ 0; 1; 2; 3 ]
    (Aladdin.Flow_graph.container_indices_of_app fg 0);
  (* 8 machines / 2 per rack / 2 racks per group: 4 racks, 2 groups *)
  check int "vertices" (2 + 6 + 2 + 2 + 4 + 8) (Aladdin.Flow_graph.n_vertices fg);
  check bool "fewer edges than naive" true
    (Aladdin.Flow_graph.n_edges fg < Aladdin.Flow_graph.naive_edges fg + 8 * 6);
  check int "naive" 48 (Aladdin.Flow_graph.naive_edges fg)

(* ---------- search: IL & DL ---------- *)

let one_app_cluster () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 8.)
        ~anti_affinity_within:true ();
      Application.make ~id:1 ~n_containers:8 ~demand:(Resource.cpu_only 4.) ();
    |]
  in
  cluster_of apps ~n_machines:4 ~machine_cpu:32.

let test_search_finds_and_respects_blacklist () =
  let cl = one_app_cluster () in
  let batch = [| mk ~id:0 ~app:0 8.; mk ~id:1 ~app:0 8. |] in
  let fg = Aladdin.Flow_graph.build cl batch in
  let s = Aladdin.Search.create fg in
  (match Aladdin.Search.find_machine s batch.(0) with
  | Some mid ->
      Alcotest.(check bool) "place" true (Cluster.place cl batch.(0) mid = Ok ());
      Aladdin.Search.note_placement s mid;
      (match Aladdin.Search.find_machine s batch.(1) with
      | Some mid2 -> check bool "sibling on another machine" true (mid2 <> mid)
      | None -> Alcotest.fail "second machine expected")
  | None -> Alcotest.fail "machine expected")

let test_search_dl_cuts_paths () =
  let cl = one_app_cluster () in
  let batch = [| mk ~id:0 ~app:1 4. |] in
  let fg = Aladdin.Flow_graph.build cl batch in
  let with_dl = Aladdin.Search.create ~dl:true fg in
  ignore (Aladdin.Search.find_machine with_dl batch.(0));
  let without_dl = Aladdin.Search.create ~dl:false fg in
  ignore (Aladdin.Search.find_machine without_dl batch.(0));
  check bool "DL explores fewer paths" true
    ((Aladdin.Search.stats with_dl).Aladdin.Search.paths_explored
    < (Aladdin.Search.stats without_dl).Aladdin.Search.paths_explored)

let test_search_il_skips_siblings () =
  (* app 0 demands more than any machine: first container fails everywhere,
     siblings must be skipped via the app-level cache. *)
  let apps =
    [| Application.make ~id:0 ~n_containers:3 ~demand:(Resource.cpu_only 64.) () |]
  in
  let cl = cluster_of apps ~n_machines:4 ~machine_cpu:32. in
  let batch = Array.init 3 (fun i -> mk ~id:i ~app:0 64.) in
  let fg = Aladdin.Flow_graph.build cl batch in
  let s = Aladdin.Search.create ~il:true fg in
  Array.iter (fun c -> ignore (Aladdin.Search.find_machine s c)) batch;
  let st = Aladdin.Search.stats s in
  check int "only the first sibling scanned" 4 st.Aladdin.Search.paths_explored;
  check bool "il skips recorded" true (st.Aladdin.Search.il_skips >= 2)

let test_search_parks_dead_machines_and_revives () =
  (* all machines full: the search parks them; invalidate revives. *)
  let apps =
    [| Application.make ~id:0 ~n_containers:16 ~demand:(Resource.cpu_only 8.) () |]
  in
  let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
  for i = 0 to 3 do
    ignore (Cluster.place cl (mk ~id:i ~app:0 8.) 0);
    ignore (Cluster.place cl (mk ~id:(10 + i) ~app:0 8.) 1)
  done;
  let batch = Array.init 4 (fun i -> mk ~id:(100 + i) ~app:0 8.) in
  let fg = Aladdin.Flow_graph.build cl batch in
  let s = Aladdin.Search.create fg in
  Alcotest.(check bool) "nothing fits" true
    (Aladdin.Search.find_machine s batch.(0) = None);
  let before = (Aladdin.Search.stats s).Aladdin.Search.paths_explored in
  (* parked: a second query does not rescan full machines *)
  Alcotest.(check bool) "still nothing" true
    (Aladdin.Search.find_machine s batch.(1) = None);
  let after = (Aladdin.Search.stats s).Aladdin.Search.paths_explored in
  check bool "parked machines not rescanned" true (after <= before + 1);
  (* free a spot, tell the search, and find it again *)
  Cluster.remove cl 0;
  Aladdin.Search.invalidate s;
  Alcotest.(check bool) "revived after invalidate" true
    (Aladdin.Search.find_machine s batch.(2) = Some 0)

let test_search_prefers_used_machines () =
  let apps =
    [| Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 2.) () |]
  in
  let cl = cluster_of apps ~n_machines:4 ~machine_cpu:32. in
  ignore (Cluster.place cl (mk ~id:0 ~app:0 2.) 2);
  let batch = [| mk ~id:1 ~app:0 2. |] in
  let fg = Aladdin.Flow_graph.build cl batch in
  let s = Aladdin.Search.create fg in
  check bool "packs onto the active machine" true
    (Aladdin.Search.find_machine s batch.(0) = Some 2)

(* DL returns the same machine the full scan would pick (the first
   admissible in preference order) — placements must be identical. *)
let prop_dl_preserves_placement =
  let gen = QCheck.Gen.(list_size (int_range 1 25) (int_range 0 3)) in
  QCheck.Test.make ~count:200 ~name:"IL/DL do not change placements"
    (QCheck.make gen) (fun app_choices ->
      let apps =
        Array.init 4 (fun i ->
            Application.make ~id:i ~n_containers:30
              ~demand:(Resource.cpu_only (float_of_int (1 + i)))
              ~anti_affinity_within:(i mod 2 = 0) ())
      in
      let batch =
        Array.of_list
          (List.mapi (fun i app -> mk ~id:i ~app (float_of_int (1 + app))) app_choices)
      in
      let run il dl =
        let cl = cluster_of apps ~n_machines:5 ~machine_cpu:8. in
        let sched =
          Aladdin.Aladdin_scheduler.make
            ~options:{ Aladdin.Aladdin_scheduler.default_options with il; dl }
            ()
        in
        let o = sched.Scheduler.schedule cl batch in
        List.sort compare o.Scheduler.placed
      in
      run false false = run true true)

(* One-pass parking keeps the blit loop's scan order: on random nearly
   full 2-D clusters (many dead machines to park), interleaved finds,
   placements, removals, IL/parking invalidations and batch refreshes give
   the same find results and the same stats as [Ref_search], the blit
   version. Paths explored, IL skips and DL cuts all depend on the order
   in which machines are scanned. *)
let prop_parking_matches_reference =
  QCheck.Test.make ~count:500 ~name:"one-pass parking = blit reference"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let shapes =
        [| (1., 1.); (1., 2.); (2., 2.); (2., 4.); (4., 4.); (4., 8.) |]
      in
      let shape () =
        let cpu, mem_gb = shapes.(Rng.int rng (Array.length shapes)) in
        Resource.make ~cpu ~mem_gb
      in
      let n_apps = 2 + Rng.int rng 5 in
      let apps =
        Array.init n_apps (fun i ->
            Application.make ~id:i ~n_containers:1 ~demand:(shape ())
              ~anti_affinity_within:(Rng.bool rng 0.3)
              ~anti_affinity_across:
                (List.filter (fun _ -> Rng.bool rng 0.2) (List.init i Fun.id))
              ())
      in
      let next_id = ref 0 in
      let container () =
        let a = apps.(Rng.int rng n_apps) in
        let id = !next_id in
        incr next_id;
        Container.make ~id ~app:a.Application.id
          ~demand:(if Rng.bool rng 0.7 then a.Application.demand else shape ())
          ~priority:0 ~arrival:id
      in
      let n_machines = 4 + Rng.int rng 40 in
      let cl =
        Cluster.create
          (Topology.homogeneous ~machines_per_rack:2 ~racks_per_group:2
             ~n_machines ~capacity:(Resource.make ~cpu:8. ~mem_gb:16.) ())
          ~constraints:(Constraint_set.of_apps apps)
      in
      let placed = ref [] in
      let place c mid =
        match Cluster.place cl c mid with
        | Ok () -> placed := c :: !placed; true
        | Error _ -> false
      in
      (* Nearly full: random machines until many placements in a row fail,
         leaving some machines untouched for the cursor tier. *)
      let misses = ref 0 in
      while !misses < 12 do
        if place (container ()) (Rng.int rng (max 1 (n_machines - 2)))
        then misses := 0
        else incr misses
      done;
      let il = Rng.bool rng 0.8 and dl = Rng.bool rng 0.8 in
      let new_batch () =
        Array.init (3 + Rng.int rng 20) (fun _ -> container ())
      in
      let batch = ref (new_batch ()) in
      let fg = Aladdin.Flow_graph.build cl !batch in
      let s = Aladdin.Search.create ~il ~dl fg in
      let r = ref (Ref_search.create ~il ~dl fg) in
      let same_stats () =
        let a = Aladdin.Search.stats s and b = Ref_search.stats !r in
        a.Aladdin.Search.paths_explored = b.Ref_search.paths_explored
        && a.il_skips = b.il_skips && a.dl_cuts = b.dl_cuts
      in
      let ok = ref true in
      for _ = 1 to 10 + Rng.int rng 50 do
        (if !ok then
           match Rng.int rng 10 with
           | 0 | 1 | 2 | 3 -> (
               let c = !batch.(Rng.int rng (Array.length !batch)) in
               let found = Aladdin.Search.find_machine s c in
               if found <> Ref_search.find_machine !r c then ok := false
               else
                 match found with
                 | Some mid
                   when Cluster.machine_of cl c.Container.id = None
                        && Rng.bool rng 0.7 ->
                     if place c mid then begin
                       Aladdin.Search.note_placement s mid;
                       Ref_search.note_placement !r mid
                     end
                 | _ -> ())
           | 4 ->
               (* a placement the search did not pick *)
               let mid = Rng.int rng n_machines in
               if place (container ()) mid then begin
                 Aladdin.Search.note_placement s mid;
                 Ref_search.note_placement !r mid
               end
           | 5 | 6 -> (
               match !placed with
               | [] -> ()
               | l ->
                   let c = List.nth l (Rng.int rng (List.length l)) in
                   if Cluster.machine_of cl c.Container.id <> None then
                     Cluster.remove cl c.Container.id)
           | 7 | 8 ->
               Aladdin.Search.invalidate s;
               Ref_search.invalidate !r
           | _ ->
               batch := new_batch ();
               let fg = Aladdin.Flow_graph.build cl !batch in
               (* the reference has no refresh: a refreshed search must
                  equal a freshly created one *)
               Aladdin.Search.refresh s fg;
               r := Ref_search.create ~il ~dl fg);
        if not (same_stats ()) then ok := false
      done;
      !ok)

(* ---------- migration & preemption scenarios ---------- *)

(* Fig. 3(b): A (high prio) runs on M; B (low prio, anti to A) fits only on
   M; A can run on N too → migrate A, deploy B. *)
let test_fig3b_migration () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 8.)
        ~priority:1 ~anti_affinity_across:[ 1 ] ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 24.) ();
      Application.make ~id:2 ~n_containers:1 ~demand:(Resource.cpu_only 16.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
  let a = mk ~id:0 ~app:0 ~priority:1 8. in
  let b = mk ~id:1 ~app:1 24. in
  (* A on machine 0; machine 1 partially filled by an unrelated app so B
     (24 cpu) only fits on machine 0, where A blocks it. *)
  Alcotest.(check bool) "A placed" true (Cluster.place cl a 0 = Ok ());
  let stuff = mk ~id:9 ~app:2 16. in
  Alcotest.(check bool) "filler placed" true (Cluster.place cl stuff 1 = Ok ());
  (match
     Aladdin.Migration.find_and_apply_migration cl b ~max_moves:4
   with
  | Some plan ->
      check int "B lands on machine 0" 0 plan.Aladdin.Migration.target;
      check int "one move" 1 (List.length plan.Aladdin.Migration.moves);
      let mv = List.hd plan.Aladdin.Migration.moves in
      check int "A migrated to 1" 1 mv.Aladdin.Migration.to_machine;
      Alcotest.(check bool) "B now placeable" true (Cluster.place cl b 0 = Ok ())
  | None -> Alcotest.fail "migration plan expected")

(* Fig. 7: machine full of small tasks; a large task needs room → the
   planner relocates enough of them (rescheduling-for-capacity). *)
let test_fig7_capacity_migration () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 8.) ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 24.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
  (* fill both machines to 16/32 with app-0 tasks *)
  for i = 0 to 1 do
    Alcotest.(check bool) "fill m0" true (Cluster.place cl (mk ~id:i ~app:0 8.) 0 = Ok ());
    Alcotest.(check bool) "fill m1" true
      (Cluster.place cl (mk ~id:(10 + i) ~app:0 8.) 1 = Ok ())
  done;
  let big = mk ~id:99 ~app:1 24. in
  (* 16 free on each machine: stuck without migration *)
  Alcotest.(check bool) "blocked everywhere" true
    (Cluster.admissible cl big 0 = Error Cluster.No_capacity
    && Cluster.admissible cl big 1 = Error Cluster.No_capacity);
  (match Aladdin.Migration.find_and_apply_migration cl big ~max_moves:4 with
  | Some plan ->
      check bool "moves happened" true (List.length plan.Aladdin.Migration.moves >= 1);
      Alcotest.(check bool) "big fits now" true
        (Cluster.place cl big plan.Aladdin.Migration.target = Ok ())
  | None -> Alcotest.fail "capacity migration expected")

(* Fig. 3(a): preemption only ever evicts strictly lower weights. *)
let test_preemption_priority_safe () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:4 ~demand:(Resource.cpu_only 16.) ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 32.)
        ~priority:2 ();
    |]
  in
  let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
  for i = 0 to 1 do
    ignore (Cluster.place cl (mk ~id:i ~app:0 16.) 0);
    ignore (Cluster.place cl (mk ~id:(10 + i) ~app:0 16.) 1)
  done;
  let batch = [| mk ~id:99 ~app:1 ~priority:2 32. |] in
  let w = Aladdin.Weights.compute
      (Array.append batch [| mk ~id:100 ~app:0 16. |]) ~capacity:cap32
  in
  (match Aladdin.Migration.find_and_apply_preemption cl w batch.(0) with
  | Some plan ->
      check int "evicts both low-priority" 2
        (List.length plan.Aladdin.Migration.evicted);
      List.iter
        (fun (e : Container.t) -> check int "victims are low priority" 0 e.Container.priority)
        plan.Aladdin.Migration.evicted
  | None -> Alcotest.fail "preemption expected");
  (* reverse direction: a low-priority container must never preempt *)
  let low = mk ~id:200 ~app:0 ~priority:0 16. in
  ignore (Cluster.place cl batch.(0) 0);
  Alcotest.(check bool) "low cannot preempt high" true
    (Aladdin.Migration.find_and_apply_preemption cl w low = None)

(* Preemption with a drained offline machine: the empty machine must not
   win "fewest evictions" (it admits nothing), so the plan still evicts
   the two low-priority containers of machine 0. *)
let test_preemption_skips_offline () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:5 ~demand:(Resource.cpu_only 16.) ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 32.)
        ~priority:2 ();
    |]
  in
  let cl = cluster_of apps ~n_machines:3 ~machine_cpu:32. in
  for i = 0 to 1 do
    ignore (Cluster.place cl (mk ~id:i ~app:0 16.) 0);
    ignore (Cluster.place cl (mk ~id:(10 + i) ~app:0 16.) 1)
  done;
  ignore (Cluster.place cl (mk ~id:20 ~app:0 16.) 2);
  Cluster.set_offline cl 2 true;
  check int "drained" 1 (List.length (Cluster.drain cl 2));
  let high = mk ~id:99 ~app:1 ~priority:2 32. in
  let w =
    Aladdin.Weights.compute [| high; mk ~id:100 ~app:0 16. |] ~capacity:cap32
  in
  match Aladdin.Migration.find_and_apply_preemption cl w high with
  | Some plan ->
      check int "online target" 0 plan.Aladdin.Migration.target_machine;
      check int "evicts both low-priority" 2
        (List.length plan.Aladdin.Migration.evicted);
      Alcotest.(check bool) "high placeable" true
        (Cluster.place cl high 0 = Ok ())
  | None -> Alcotest.fail "preemption expected despite the offline machine"

(* ---------- migration planner ≡ scan-based reference ---------- *)

(* Everything the planners may touch: each machine's containers as an
   id-sorted set, and its free vector. *)
let machine_state cl =
  Array.to_list
    (Array.map
       (fun m ->
         ( List.sort Int.compare
             (List.map
                (fun (c : Container.t) -> c.Container.id)
                (Machine.containers m)),
           Resource.to_array (Machine.free m) ))
       (Cluster.machines cl))

type step =
  | Migrated of Aladdin.Migration.migration_plan
  | Preempted of Aladdin.Migration.preemption_plan
  | Stuck

(* The scheduler's fallback chain for one unplaceable container: migrate,
   else preempt, then place on the freed target. *)
let plan_step ~migrate ~preempt cl weights ((c : Container.t), max_moves) =
  let place mid =
    if Cluster.place cl c mid <> Ok () then Alcotest.fail "freed target denied"
  in
  match migrate cl c ~max_moves with
  | Some (plan : Aladdin.Migration.migration_plan) ->
      place plan.target;
      Migrated plan
  | None -> (
      match preempt cl weights c with
      | Some (plan : Aladdin.Migration.preemption_plan) ->
          place plan.target_machine;
          Preempted plan
      | None -> Stuck)

(* Per call: twin clusters from [build] are advanced through queries
   [0..i-1] by the reference on both, then query [i] runs through the fast
   planners on one and the reference on the other; the plans and the
   machine states must agree. Both twins share their whole history, so
   the victim and tie orders they read from each machine's container
   table agree too. The reference's failed migration plans remove and
   re-place victims, which moves them within that table, and preemption
   breaks ties in that order: after a failed migration, preemption is
   therefore compared on a fresh pair of twins. For the same reason a
   sequence run (the fast planners on one twin throughout) would diverge
   from the reference on ties. *)
let same_as_reference build weights queries =
  let twins prefix =
    let fast = build () and slow = build () in
    List.iter
      (fun q ->
        List.iter
          (fun cl ->
            ignore
              (plan_step ~migrate:Ref_migration.find_and_apply_migration
                 ~preempt:Ref_migration.find_and_apply_preemption cl weights q))
          [ fast; slow ])
      (List.rev prefix);
    (fast, slow)
  in
  let same_call prefix ((c : Container.t), max_moves) =
    let fast, slow = twins prefix in
    match
      ( Aladdin.Migration.find_and_apply_migration fast c ~max_moves,
        Ref_migration.find_and_apply_migration slow c ~max_moves )
    with
    | Some a, Some b -> a = b && machine_state fast = machine_state slow
    | None, None ->
        machine_state fast = machine_state slow
        &&
        let fast, slow = twins prefix in
        Aladdin.Migration.find_and_apply_preemption fast weights c
        = Ref_migration.find_and_apply_preemption slow weights c
        && machine_state fast = machine_state slow
    | _ -> false
  in
  let rec from prefix = function
    | [] -> true
    | q :: rest -> same_call prefix q && from (q :: prefix) rest
  in
  from [] queries

(* A conflict-only victim set whose second victim's targets are first
   needed while planning. Machine 0 holds Y (app 1) and W (app 2), both
   conflicting with X (app 0); machine 2 has room for one of them and is
   the only target of either. Sending Y there leaves W nowhere, so the
   plan on machine 0 fails; machine 1's plan then needs W's targets as
   the call found them (machine 2), not as if Y had moved. *)
let test_migration_targets_before_first_move () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 5.)
        ~anti_affinity_across:[ 1; 2 ] ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 1.) ();
      Application.make ~id:2 ~n_containers:2 ~demand:(Resource.cpu_only 1.)
        ~anti_affinity_within:true ();
      Application.make ~id:3 ~n_containers:1 ~demand:(Resource.cpu_only 9.) ();
      Application.make ~id:4 ~n_containers:1 ~demand:(Resource.cpu_only 5.)
        ~anti_affinity_across:[ 1 ] ();
    |]
  in
  let build () =
    let cl = cluster_of apps ~n_machines:3 ~machine_cpu:10. in
    List.iter
      (fun (c, mid) ->
        if Cluster.place cl c mid <> Ok () then Alcotest.fail "setup")
      [
        (mk ~id:1 ~app:1 1., 0);
        (mk ~id:2 ~app:2 1., 0);
        (mk ~id:3 ~app:2 1., 1);
        (mk ~id:4 ~app:4 5., 1);
        (mk ~id:5 ~app:3 9., 2);
      ];
    cl
  in
  let cl = build () in
  Alcotest.(check (list int)) "Y is relocated before W" [ 1; 2 ]
    (List.map
       (fun (c : Container.t) -> c.Container.id)
       (Machine.containers (Cluster.machine cl 0)));
  let x = mk ~id:9 ~app:0 5. in
  (match Aladdin.Migration.find_and_apply_migration cl x ~max_moves:4 with
  | Some { Aladdin.Migration.target; moves = [ mv ] } ->
      check int "X lands on machine 1" 1 target;
      check int "W moved off machine 1" 3
        mv.Aladdin.Migration.container.Container.id;
      check int "to machine 2" 2 mv.Aladdin.Migration.to_machine
  | _ -> Alcotest.fail "one-move plan on machine 1 expected");
  let w = Aladdin.Weights.compute [| x |] ~capacity:(Resource.cpu_only 10.) in
  check bool "same as the reference" true
    (same_as_reference build w [ (x, 4) ])

let cap_2d = Resource.make ~cpu:8. ~mem_gb:16.

(* Nearly full random clusters with anti-affinity (within and across),
   a few demand shapes shared between apps, priority classes, and at times
   one drained offline machine; then a run of new containers, each with a
   random move budget and a random priority class. *)
let random_migration_case seed =
  let rng = Rng.create seed in
  let shapes =
    [| (1., 1.); (1., 2.); (2., 2.); (2., 4.); (3., 4.); (4., 8.) |]
  in
  let shape () =
    let cpu, mem_gb = shapes.(Rng.int rng (Array.length shapes)) in
    Resource.make ~cpu ~mem_gb
  in
  let n_apps = 3 + Rng.int rng 5 in
  let apps =
    Array.init n_apps (fun i ->
        Application.make ~id:i ~n_containers:1 ~demand:(shape ())
          ~priority:(Rng.int rng 3)
          ~anti_affinity_within:(Rng.bool rng 0.5)
          ~anti_affinity_across:
            (List.filter (fun _ -> Rng.bool rng 0.5) (List.init i Fun.id))
          ())
  in
  let container id =
    let a = apps.(Rng.int rng n_apps) in
    Container.make ~id ~app:a.Application.id
      ~demand:(if Rng.bool rng 0.75 then a.Application.demand else shape ())
      ~priority:a.Application.priority ~arrival:id
  in
  let n_machines = 4 + Rng.int rng 7 in
  let fresh () =
    Cluster.create
      (Topology.homogeneous ~machines_per_rack:2 ~racks_per_group:2 ~n_machines
         ~capacity:cap_2d ())
      ~constraints:(Constraint_set.of_apps apps)
  in
  (* Record the fill on a scratch cluster: first admissible machine from a
     random start, until several containers in a row find none. *)
  let scratch = fresh () in
  let rec fill id misses acc =
    if misses >= 8 then List.rev acc
    else
      let c = container id in
      let start = Rng.int rng n_machines in
      let rec first k =
        if k = n_machines then None
        else
          let mid = (start + k) mod n_machines in
          if Cluster.admissible scratch c mid = Ok () then Some mid
          else first (k + 1)
      in
      match first 0 with
      | Some mid ->
          ignore (Cluster.place scratch c mid);
          fill (id + 1) 0 ((c, mid) :: acc)
      | None -> fill (id + 1) (misses + 1) acc
  in
  let placements = fill 0 0 [] in
  let offline =
    if Rng.bool rng 0.25 then Some (Rng.int rng n_machines) else None
  in
  let build () =
    let cl = fresh () in
    List.iter (fun (c, mid) -> ignore (Cluster.place cl c mid)) placements;
    Option.iter
      (fun mid ->
        Cluster.set_offline cl mid true;
        ignore (Cluster.drain cl mid))
      offline;
    cl
  in
  let queries =
    List.init (6 + Rng.int rng 10) (fun i ->
        let c = container (1000 + i) in
        ({ c with Container.priority = Rng.int rng 3 }, 1 + Rng.int rng 8))
  in
  let weights =
    Aladdin.Weights.compute
      (Array.of_list (List.map fst queries))
      ~capacity:cap_2d
  in
  (build, weights, queries)

let prop_migration_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"planners = scan-based reference"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let build, weights, queries = random_migration_case seed in
      same_as_reference build weights queries)

(* A failed migration call is read-only: under an open mark, neither the
   cluster's version nor its mutation log moves. Queries that do find a
   plan (or a preemption) advance the cluster, so later ones start from
   varied states. *)
let prop_failed_migration_read_only =
  QCheck.Test.make ~count:500 ~name:"failed migration leaves the cluster untouched"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let build, weights, queries = random_migration_case seed in
      let cl = build () in
      let m = Cluster.mark cl in
      let ok =
        List.for_all
          (fun ((c : Container.t), max_moves) ->
            let version = Cluster.version cl and logged = Cluster.log_length cl in
            match Aladdin.Migration.find_and_apply_migration cl c ~max_moves with
            | Some plan ->
                ignore (Cluster.place cl c plan.Aladdin.Migration.target);
                true
            | None ->
                let untouched =
                  Cluster.version cl = version && Cluster.log_length cl = logged
                in
                (match Aladdin.Migration.find_and_apply_preemption cl weights c with
                | Some plan ->
                    ignore (Cluster.place cl c plan.Aladdin.Migration.target_machine)
                | None -> ());
                untouched)
          queries
      in
      Cluster.release cl m;
      ok)

(* ---------- end-to-end scheduler invariants ---------- *)

let random_workload_gen =
  QCheck.Gen.(int_range 0 10_000)

let scheduler_outcome seed =
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = seed } in
  let w = Alibaba.generate params in
  let sched = Aladdin.Aladdin_scheduler.make () in
  let machines = max 4 (Workload.n_containers w / 10) in
  Replay.run_workload sched w ~n_machines:machines

let prop_aladdin_never_violates =
  QCheck.Test.make ~count:20 ~name:"Aladdin placements never violate"
    (QCheck.make random_workload_gen) (fun seed ->
      let r = scheduler_outcome seed in
      r.Replay.outcome.Scheduler.violations = []
      && Cluster.current_violations r.Replay.cluster = [])

let prop_aladdin_capacity_respected =
  QCheck.Test.make ~count:20 ~name:"machine capacity respected"
    (QCheck.make random_workload_gen) (fun seed ->
      let r = scheduler_outcome seed in
      Array.for_all
        (fun m ->
          Resource.fits ~demand:(Machine.used m) ~within:(Machine.capacity m))
        (Cluster.machines r.Replay.cluster))

let prop_aladdin_accounting =
  QCheck.Test.make ~count:20 ~name:"placed + undeployed = batch"
    (QCheck.make random_workload_gen) (fun seed ->
      let r = scheduler_outcome seed in
      List.length r.Replay.outcome.Scheduler.placed
      + List.length r.Replay.outcome.Scheduler.undeployed
      = r.Replay.n_submitted)

let test_scheduler_deploys_all_at_paper_ratio () =
  let r = scheduler_outcome 42 in
  check int "zero undeployed" 0
    (List.length r.Replay.outcome.Scheduler.undeployed)

(* Golden placement fingerprint on the seed-42 scaled trace. The solver
   engine refactor (CSR views, registry, middleware) must not change a
   single placement decision of the default Aladdin stack: this hash was
   captured before the refactor and replayed identically after it. If an
   intentional algorithm change moves it, re-capture and update. *)
let test_placement_identity_seed42 () =
  let w = Alibaba.generate { (Alibaba.scaled 0.005) with Alibaba.seed = 42 } in
  let total =
    (Resource.to_array (Workload.total_demand w)).(Resource.cpu_dim)
  in
  let per =
    (Resource.to_array w.Workload.machine_capacity).(Resource.cpu_dim)
  in
  let n_machines =
    max 4 (int_of_float (ceil (1.2 *. float_of_int total /. float_of_int per)))
  in
  let cl =
    Cluster.create
      (Workload.topology w ~n_machines)
      ~constraints:(Workload.constraint_set w)
  in
  let sched = Aladdin.Aladdin_scheduler.make () in
  let containers = w.Workload.containers in
  let n = Array.length containers in
  let per_batch = max 1 ((n + 9) / 10) in
  let i = ref 0 in
  while !i < n do
    let len = min per_batch (n - !i) in
    ignore (sched.Scheduler.schedule cl (Array.sub containers !i len));
    i := !i + len
  done;
  let fingerprint =
    List.fold_left
      (fun acc (cid, mid) -> (acc * 1_000_003) + (cid * 8191) + mid)
      17
      (List.sort compare (Cluster.placements cl))
  in
  check int "every container placed" n
    (List.length (Cluster.placements cl));
  check int "placement fingerprint" (-4400591963670697737) fingerprint

(* Golden run of the saturated path: a small trace in low-priority-first
   (CLP) order on 30% of the machines its CPU demand fills, in batches of
   25, so most containers go through migration and preemption planning.
   The work counts were captured from the machine-by-machine scan
   planners; faster planning must not move them. The fingerprint was
   re-captured once read-only migration planning landed: the scan
   planners' failed plans removed and re-placed victims, which reordered
   each machine's container table, and later victim and preemption ties
   read that order (-3606171233552239721 before). If an intentional
   algorithm change moves any of them, re-capture and update. *)
let saturated_trace ?(order = Arrival.Low_priority_first) ~scale ~seed ~fill
    () =
  let w =
    Arrival.apply order
      (Alibaba.generate { (Alibaba.scaled scale) with Alibaba.seed })
  in
  let total = Resource.get (Workload.total_demand w) Resource.cpu_dim in
  let per = Resource.get w.Workload.machine_capacity Resource.cpu_dim in
  let n_machines =
    max 2 (int_of_float (ceil (fill *. float_of_int total /. float_of_int per)))
  in
  (w, Gen.fresh_cluster w ~n_machines)

let batches_of ~size (w : Workload.t) =
  let n = Array.length w.Workload.containers in
  List.init ((n + size - 1) / size) (fun k ->
      Array.sub w.Workload.containers (k * size) (min size (n - (k * size))))

let c_stuck_skips = Obs.counter "aladdin.stuck_skips"

let test_saturated_identity () =
  let w, cl = saturated_trace ~scale:0.005 ~seed:42 ~fill:0.3 () in
  let sched = Aladdin.Aladdin_scheduler.make () in
  let skips = Obs.count c_stuck_skips in
  let migrations = ref 0 and preemptions = ref 0 in
  List.iter
    (fun batch ->
      let o = sched.Scheduler.schedule cl batch in
      migrations := !migrations + o.Scheduler.migrations;
      preemptions := !preemptions + o.Scheduler.preemptions)
    (batches_of ~size:25 w);
  check int "placed" 150 (Cluster.n_placed cl);
  check int "migrations" 63 !migrations;
  check int "preemptions" 170 !preemptions;
  check int "placement fingerprint" 1609778878433942861
    (Journal.placement_fingerprint (Cluster.placements cl));
  check bool "the stuck memo skipped planner calls" true
    (Obs.count c_stuck_skips > skips)

(* The stuck memo skips only planner calls that would fail: on small
   saturated traces (random mix seed, arrival order, fill and batch size),
   [schedule_raw] gives batch for batch the outcome of [Ref_schedule], the
   same loop without the memo, and leaves every machine with the same
   containers in the same order. *)
let prop_stuck_memo_exact =
  QCheck.Test.make ~count:25 ~name:"stuck memo = memo-free loop"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let order =
        snd (List.nth Arrival.all (Rng.int rng (List.length Arrival.all)))
      in
      let fill = 0.15 +. (0.35 *. Rng.float rng) in
      let w, fast = saturated_trace ~order ~scale:0.003 ~seed ~fill () in
      let slow = Gen.fresh_cluster w ~n_machines:(Cluster.n_machines fast) in
      let options = Aladdin.Aladdin_scheduler.default_options in
      let containers cl =
        Array.map
          (fun m ->
            List.map (fun (c : Container.t) -> c.Container.id) (Machine.containers m))
          (Cluster.machines cl)
      in
      List.for_all
        (fun batch ->
          let a = Aladdin.Aladdin_scheduler.schedule_raw options fast batch in
          let b = Ref_schedule.schedule_raw options slow batch in
          a = b && containers fast = containers slow)
        (batches_of ~size:(10 + Rng.int rng 30) w))

(* Both planners tick the ambient deadline once per machine they try, so
   a step budget binds inside a planner call: batch after batch of the
   saturated trace, each under a budget of twice its size, the first
   expiry names a planner, not the once-per-round check. *)
let test_deadline_binds_in_planners () =
  let w, cl = saturated_trace ~scale:0.005 ~seed:42 ~fill:0.3 () in
  let options = Aladdin.Aladdin_scheduler.default_options in
  let rec first_expiry = function
    | [] -> Alcotest.fail "no batch ran out of its step budget"
    | batch :: rest -> (
        let d = Flownet.Deadline.make ~steps:(2 * Array.length batch) () in
        match
          Flownet.Deadline.with_ambient d (fun () ->
              Aladdin.Aladdin_scheduler.schedule_raw options cl batch)
        with
        | _ -> first_expiry rest
        | exception Flownet.Deadline.Expired { site; _ } -> site)
  in
  let site = first_expiry (batches_of ~size:25 w) in
  check bool ("expired in a planner, not at " ^ site) true
    (List.mem site [ "migration.plan"; "preemption.plan" ])

let test_scheduler_names () =
  check bool "plain" true
    (Aladdin.Aladdin_scheduler.name_of_options Aladdin.Aladdin_scheduler.plain
    = "Aladdin");
  check bool "il" true
    (Aladdin.Aladdin_scheduler.name_of_options Aladdin.Aladdin_scheduler.with_il
    = "Aladdin+IL");
  check bool "default" true
    (Aladdin.Aladdin_scheduler.name_of_options
       Aladdin.Aladdin_scheduler.default_options
    = "Aladdin+IL+DL");
  check bool "base" true
    (Aladdin.Aladdin_scheduler.name_of_options
       { Aladdin.Aladdin_scheduler.default_options with weight_base = Some 16 }
    = "Aladdin+IL+DL(16)")

(* Regression: a later low-priority batch must never evict deployed
   high-priority containers, even though its batch-local weight table does
   not know the higher classes. *)
let test_cross_batch_preemption_safety () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 8.)
        ~priority:2 ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 32.) ();
    |]
  in
  let cl = cluster_of apps ~n_machines:1 ~machine_cpu:32. in
  let sched = Aladdin.Aladdin_scheduler.make () in
  let high = [| mk ~id:0 ~app:0 ~priority:2 8.; mk ~id:1 ~app:0 ~priority:2 8. |] in
  let o1 = sched.Scheduler.schedule cl high in
  check int "high placed" 2 (List.length o1.Scheduler.placed);
  (* a big low-priority container arrives in its own batch *)
  let o2 = sched.Scheduler.schedule cl [| mk ~id:9 ~app:1 ~priority:0 32. |] in
  check int "low-priority undeployed" 1 (List.length o2.Scheduler.undeployed);
  check bool "high-priority still deployed" true
    (Cluster.machine_of cl 0 <> None && Cluster.machine_of cl 1 <> None)

(* priority honored: with low-priority-first arrival, every high-priority
   container still deploys (preemption pushes the low ones out). *)
let test_priority_respected_under_clp () =
  let params = { (Alibaba.scaled 0.01) with Alibaba.seed = 7 } in
  let w = Alibaba.generate params in
  let sched = Aladdin.Aladdin_scheduler.make () in
  let machines = max 4 (Workload.n_containers w / 10) in
  let r =
    Replay.run_workload ~order:Arrival.Low_priority_first sched w
      ~n_machines:machines
  in
  List.iter
    (fun (c : Container.t) ->
      check int "undeployed are lowest priority only" 0 c.Container.priority)
    r.Replay.outcome.Scheduler.undeployed

let test_gang_all_or_nothing () =
  (* app 0 needs 3 distinct machines but only 2 exist: without gang, 2 of
     3 deploy; with gang, the whole app rolls back. *)
  let apps =
    [|
      Application.make ~id:0 ~n_containers:3 ~demand:(Resource.cpu_only 4.)
        ~anti_affinity_within:true ();
      Application.make ~id:1 ~n_containers:1 ~demand:(Resource.cpu_only 4.) ();
    |]
  in
  let batch =
    Array.append
      (Array.init 3 (fun i -> mk ~id:i ~app:0 4.))
      [| mk ~id:10 ~app:1 4. |]
  in
  let run gang =
    let cl = cluster_of apps ~n_machines:2 ~machine_cpu:32. in
    let sched =
      Aladdin.Aladdin_scheduler.make
        ~options:{ Aladdin.Aladdin_scheduler.default_options with gang }
        ()
    in
    (cl, sched.Scheduler.schedule cl batch)
  in
  let _, without = run false in
  check int "partial placement without gang" 3 (List.length without.Scheduler.placed);
  let cl, with_gang = run true in
  check int "gang rolls the app back" 1 (List.length with_gang.Scheduler.placed);
  check int "three undeployed" 3 (List.length with_gang.Scheduler.undeployed);
  (* the independent app survives *)
  check bool "other app stays" true (Cluster.machine_of cl 10 <> None);
  check int "cluster consistent" 1 (Cluster.n_placed cl)

let test_flow_graph_dot () =
  let apps =
    [| Application.make ~id:0 ~n_containers:2 ~demand:(Resource.cpu_only 1.) () |]
  in
  let cl = cluster_of apps ~n_machines:4 ~machine_cpu:32. in
  let fg = Aladdin.Flow_graph.build cl (Array.init 2 (fun i -> mk ~id:i ~app:0 1.)) in
  let dot = Aladdin.Flow_graph.to_dot fg in
  check bool "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "has app vertex" true (contains "A0");
  check bool "has machine vertex" true (contains "N3");
  check bool "has sink edges" true (contains "-> t")

(* ---------- lifecycle ---------- *)

let lifecycle_cluster () =
  let apps =
    [|
      Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 8.)
        ~priority:1 ~anti_affinity_within:true ();
      Application.make ~id:1 ~n_containers:8 ~demand:(Resource.cpu_only 4.) ();
    |]
  in
  cluster_of apps ~n_machines:8 ~machine_cpu:32.

let app0 () =
  Application.make ~id:0 ~n_containers:8 ~demand:(Resource.cpu_only 8.)
    ~priority:1 ~anti_affinity_within:true ()

let test_lifecycle_scale_out_in () =
  let cl = lifecycle_cluster () in
  let o = Aladdin.Lifecycle.scale_out cl ~app:(app0 ()) ~replicas:4 ~first_id:100 in
  check int "scaled out" 4 (List.length o.Scheduler.placed);
  check int "running" 4 (List.length (Aladdin.Lifecycle.running cl ~app:0));
  (* anti-within: all on distinct machines *)
  let machines =
    List.filter_map (fun (cid, _) -> Cluster.machine_of cl cid) o.Scheduler.placed
  in
  check int "distinct machines" 4 (List.length (List.sort_uniq compare machines));
  let removed = Aladdin.Lifecycle.scale_in cl ~app:0 ~replicas:2 in
  check int "scaled in" 2 (List.length removed);
  check int "running after scale-in" 2
    (List.length (Aladdin.Lifecycle.running cl ~app:0));
  check bool "highest ids removed first" true
    (List.for_all (fun id -> id >= 102) removed)

let test_lifecycle_failure_recovery () =
  let cl = lifecycle_cluster () in
  let _ = Aladdin.Lifecycle.scale_out cl ~app:(app0 ()) ~replicas:6 ~first_id:0 in
  (* pick a machine hosting one replica and fail it *)
  let victim =
    match Cluster.machine_of cl 0 with Some m -> m | None -> Alcotest.fail "placed"
  in
  let report = Aladdin.Lifecycle.fail_machine cl victim in
  check int "one displaced" 1 (List.length report.Aladdin.Lifecycle.displaced);
  check int "recovered" 1 (List.length report.Aladdin.Lifecycle.recovered);
  check int "none lost" 0 (List.length report.Aladdin.Lifecycle.lost);
  check bool "machine offline" true (Cluster.is_offline cl victim);
  check int "machine empty" 0 (Machine.n_containers (Cluster.machine cl victim));
  (* the recovered replica is NOT on the failed machine and not with a
     sibling *)
  check int "still 6 running" 6 (List.length (Aladdin.Lifecycle.running cl ~app:0));
  check int "no violations" 0 (List.length (Cluster.current_violations cl));
  (* nothing can be placed on the offline machine *)
  check bool "offline rejects" true
    (Cluster.admissible cl (mk ~id:777 ~app:1 1.) victim = Error Cluster.No_capacity);
  Aladdin.Lifecycle.recover_machine cl victim;
  check bool "back online" true
    (Cluster.admissible cl (mk ~id:777 ~app:1 1.) victim = Ok ())

let test_lifecycle_rolling_restart () =
  let cl = lifecycle_cluster () in
  let _ = Aladdin.Lifecycle.scale_out cl ~app:(app0 ()) ~replicas:5 ~first_id:0 in
  let before = List.length (Aladdin.Lifecycle.running cl ~app:0) in
  let report = Aladdin.Lifecycle.rolling_restart cl ~app:0 in
  check int "all restarted" 5 (List.length report.Aladdin.Lifecycle.restarted);
  check int "none stuck" 0 (List.length report.Aladdin.Lifecycle.stuck);
  check int "replica count preserved" before
    (List.length (Aladdin.Lifecycle.running cl ~app:0));
  check int "no violations" 0 (List.length (Cluster.current_violations cl))

let test_lifecycle_validation () =
  let cl = lifecycle_cluster () in
  Alcotest.check_raises "unknown app"
    (Invalid_argument "Constraint_set.app: unknown id") (fun () ->
      ignore
        (Aladdin.Lifecycle.scale_out cl
           ~app:
             (Application.make ~id:99 ~n_containers:1
                ~demand:(Resource.cpu_only 1.) ())
           ~replicas:1 ~first_id:0));
  Alcotest.check_raises "bad replicas"
    (Invalid_argument "Lifecycle.scale_out: replicas") (fun () ->
      ignore (Aladdin.Lifecycle.scale_out cl ~app:(app0 ()) ~replicas:0 ~first_id:0))

let () =
  Alcotest.run "aladdin"
    [
      ( "weights",
        [
          Alcotest.test_case "Eq.5 guarantee" `Quick test_weights_eq5_guarantee;
          Alcotest.test_case "fixed base" `Quick test_weights_fixed_base;
          Alcotest.test_case "magnitude" `Quick test_weights_magnitude;
          QCheck_alcotest.to_alcotest prop_weights_eq5_random;
        ] );
      ( "flow-graph",
        [
          Alcotest.test_case "tiers and edges" `Quick test_flow_graph_edges;
        ] );
      ( "search",
        [
          Alcotest.test_case "blacklist respected" `Quick
            test_search_finds_and_respects_blacklist;
          Alcotest.test_case "DL cuts paths" `Quick test_search_dl_cuts_paths;
          Alcotest.test_case "IL skips siblings" `Quick test_search_il_skips_siblings;
          Alcotest.test_case "parks and revives machines" `Quick
            test_search_parks_dead_machines_and_revives;
          Alcotest.test_case "prefers used machines" `Quick
            test_search_prefers_used_machines;
          QCheck_alcotest.to_alcotest prop_dl_preserves_placement;
          QCheck_alcotest.to_alcotest prop_parking_matches_reference;
        ] );
      ( "migration",
        [
          Alcotest.test_case "Fig.3(b) migration" `Quick test_fig3b_migration;
          Alcotest.test_case "Fig.7 capacity migration" `Quick
            test_fig7_capacity_migration;
          Alcotest.test_case "preemption priority-safe" `Quick
            test_preemption_priority_safe;
          Alcotest.test_case "preemption skips offline machines" `Quick
            test_preemption_skips_offline;
          Alcotest.test_case "targets looked up before the first move" `Quick
            test_migration_targets_before_first_move;
          QCheck_alcotest.to_alcotest prop_migration_matches_reference;
          QCheck_alcotest.to_alcotest prop_failed_migration_read_only;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deploys all at paper ratio" `Quick
            test_scheduler_deploys_all_at_paper_ratio;
          Alcotest.test_case "policy names" `Quick test_scheduler_names;
          Alcotest.test_case "placement identity (seed 42)" `Quick
            test_placement_identity_seed42;
          Alcotest.test_case "saturated identity (CLP, seed 42)" `Quick
            test_saturated_identity;
          QCheck_alcotest.to_alcotest prop_stuck_memo_exact;
          Alcotest.test_case "deadline binds inside the planners" `Quick
            test_deadline_binds_in_planners;
          Alcotest.test_case "priority under CLP" `Quick
            test_priority_respected_under_clp;
          Alcotest.test_case "cross-batch preemption safety" `Quick
            test_cross_batch_preemption_safety;
          QCheck_alcotest.to_alcotest prop_aladdin_never_violates;
          QCheck_alcotest.to_alcotest prop_aladdin_capacity_respected;
          QCheck_alcotest.to_alcotest prop_aladdin_accounting;
        ] );
      ( "gang",
        [
          Alcotest.test_case "all-or-nothing" `Quick test_gang_all_or_nothing;
          Alcotest.test_case "dot export" `Quick test_flow_graph_dot;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "scale out/in" `Quick test_lifecycle_scale_out_in;
          Alcotest.test_case "failure recovery" `Quick
            test_lifecycle_failure_recovery;
          Alcotest.test_case "rolling restart" `Quick
            test_lifecycle_rolling_restart;
          Alcotest.test_case "validation" `Quick test_lifecycle_validation;
        ] );
    ]
