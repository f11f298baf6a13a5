(* Warm-start regression suite: the incremental scheduling core must be
   behaviourally identical to from-scratch — same placements, batch for
   batch, over a multi-batch replay in every arrival order — and Aladdin
   placements must never violate a constraint, with or without IL/DL. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Workload sizing, batch splitting and fingerprint helpers come from the
   shared [Gen] module. *)
let fresh_cluster = Gen.fresh_cluster
let machines_for = Gen.machines_for
let waves = Gen.waves
let sorted_placements = Gen.sorted_placements
let ids = Gen.ids

(* ---------- equivalence: warm scheduler == from-scratch scheduler ---------- *)

(* 50-batch replay in all four arrival orders: the warm scheduler (carried
   Search + equivalence classes) must reproduce the from-scratch placement
   sequence exactly, batch for batch. *)
let test_warm_equals_cold_all_orders () =
  let params = { (Alibaba.scaled 0.005) with Alibaba.seed = 7 } in
  let base = Alibaba.generate params in
  let n_machines = machines_for base ~headroom:1.15 in
  List.iter
    (fun (abbrev, order) ->
      if order <> Arrival.As_submitted then begin
        let w = Arrival.apply order base in
        let cold = Aladdin.Aladdin_scheduler.make () in
        let warm = Aladdin.Aladdin_scheduler.make_warm () in
        let cl_cold = fresh_cluster w ~n_machines in
        let cl_warm = fresh_cluster w ~n_machines in
        let batch_no = ref 0 in
        List.iter
          (fun wave ->
            incr batch_no;
            let o_cold = cold.Scheduler.schedule cl_cold wave in
            let o_warm = warm.Scheduler.schedule cl_warm wave in
            let ctx what =
              Printf.sprintf "%s: batch %d: %s" abbrev !batch_no what
            in
            if o_cold.Scheduler.placed <> o_warm.Scheduler.placed then
              Alcotest.fail (ctx "placements differ");
            if
              ids o_cold.Scheduler.undeployed
              <> ids o_warm.Scheduler.undeployed
            then Alcotest.fail (ctx "undeployed differ");
            check int (ctx "migrations") o_cold.Scheduler.migrations
              o_warm.Scheduler.migrations;
            check int (ctx "preemptions") o_cold.Scheduler.preemptions
              o_warm.Scheduler.preemptions;
            if sorted_placements cl_cold <> sorted_placements cl_warm then
              Alcotest.fail (ctx "cluster states diverged"))
          (waves w.Workload.containers ~n_batches:50);
        check bool (abbrev ^ ": replay ran batches") true (!batch_no >= 2)
      end)
    Arrival.all

(* ---------- property: placements never violate constraints ---------- *)

(* Over seeded Alibaba workloads, every deployed placement is free of
   anti-affinity violations — whatever the IL/DL setting. *)
let test_no_violations_property () =
  List.iter
    (fun seed ->
      let params = { (Alibaba.scaled 0.002) with Alibaba.seed = seed } in
      let w = Alibaba.generate params in
      let n_machines = machines_for w ~headroom:1.1 in
      List.iter
        (fun (label, options) ->
          let sched = Aladdin.Aladdin_scheduler.make ~options () in
          let r =
            Replay.run ~batch:16 sched ~cluster:(fresh_cluster w ~n_machines)
              ~containers:w.Workload.containers
          in
          let ctx what = Printf.sprintf "seed %d %s: %s" seed label what in
          check int (ctx "tolerated violations") 0
            (List.length r.Replay.outcome.Scheduler.violations);
          check int (ctx "violations in final placement") 0
            (List.length (Cluster.current_violations r.Replay.cluster)))
        [
          ("plain", Aladdin.Aladdin_scheduler.plain);
          ("with_il", Aladdin.Aladdin_scheduler.with_il);
          ("il+dl", Aladdin.Aladdin_scheduler.default_options);
        ])
    [ 3; 17; 42 ]

(* ---------- refresh: per-batch state matches a fresh create ---------- *)

let test_refresh_matches_create_stats () =
  let params = { (Alibaba.scaled 0.002) with Alibaba.seed = 5 } in
  let w = Alibaba.generate params in
  let n_machines = machines_for w ~headroom:1.3 in
  let cl = fresh_cluster w ~n_machines in
  let wave_list = waves w.Workload.containers ~n_batches:10 in
  let first = List.hd wave_list in
  let fg0 = Aladdin.Flow_graph.build cl first in
  let warm_search = Aladdin.Search.create ~eq:true fg0 in
  List.iter
    (fun wave ->
      let fg = Aladdin.Flow_graph.build cl wave in
      Aladdin.Search.refresh warm_search fg;
      let st = Aladdin.Search.stats warm_search in
      check int "refresh zeroes paths_explored" 0
        st.Aladdin.Search.paths_explored;
      check int "refresh zeroes il_skips" 0 st.Aladdin.Search.il_skips;
      check int "refresh zeroes dl_cuts" 0 st.Aladdin.Search.dl_cuts;
      check int "refresh zeroes eq_skips" 0 st.Aladdin.Search.eq_skips;
      let fresh = Aladdin.Search.create fg in
      (* identical machine choice for every container of the batch, and the
         same placements applied to the shared cluster *)
      Array.iter
        (fun c ->
          let a = Aladdin.Search.find_machine warm_search c in
          let b = Aladdin.Search.find_machine fresh c in
          check bool "same machine choice" true (a = b);
          match a with
          | Some mid ->
              (match Cluster.place cl c mid with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "refresh: inadmissible placement");
              Aladdin.Search.note_placement warm_search mid;
              Aladdin.Search.note_placement fresh mid
          | None -> ())
        wave)
    wave_list

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "warm scheduler = from-scratch (CHP/CLP/CLA/CSA)"
            `Quick test_warm_equals_cold_all_orders;
          Alcotest.test_case "search refresh = fresh create" `Quick
            test_refresh_matches_create_stats;
        ] );
      ( "properties",
        [
          Alcotest.test_case "no violations with and without IL/DL" `Quick
            test_no_violations_property;
        ] );
    ]
