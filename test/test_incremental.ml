(* Incremental scheduling suite: the scheduler that carries its search
   across batches must be behaviourally identical to a fresh search per
   batch — same placements, batch for batch, over a multi-batch replay in
   every arrival order, also when something else places on the cluster in
   between — and Aladdin placements must never violate a constraint, with
   or without IL/DL. *)

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

(* ---------- equivalence: carried search == fresh search per batch ---------- *)

(* The outsider: something other than this scheduler placing on the
   cluster between batches (a lower ladder rung, the auditor's repair, a
   cells fix-up, kube). It puts [c] on the highest-id empty machine that
   admits it. *)
let outsider_place cl (c : Container.t) =
  let rec go mid =
    if mid >= 0 then
      if
        (not (Machine.is_used (Cluster.machine cl mid)))
        && Cluster.admissible cl c mid = Ok ()
      then (
        match Cluster.place cl c mid with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "outsider: inadmissible placement")
      else go (mid - 1)
  in
  go (Cluster.n_machines cl - 1)

(* 50-batch replay in every arrival order, with and without an outsider
   placing a held-back container every third batch: the scheduler that
   carries its search across batches must reproduce, batch for batch, a
   reference that builds a fresh search per batch ([schedule_raw] inside a
   mark, as the transaction runs it). *)
let test_carried_equals_fresh_all_orders () =
  let params = { (Alibaba.scaled 0.005) with Alibaba.seed = 7 } in
  let base = Alibaba.generate params in
  let n_machines = machines_for base ~headroom:1.15 in
  let options = Aladdin.Aladdin_scheduler.default_options in
  List.iter
    (fun outsider ->
      List.iter
        (fun (abbrev, order) ->
          let w = Arrival.apply order base in
          (* Every 20th container is held back for the outsider. *)
          let all = Array.to_list w.Workload.containers in
          let held = ref (List.filteri (fun i _ -> i mod 20 = 19) all) in
          let scheduled =
            Array.of_list (List.filteri (fun i _ -> i mod 20 <> 19) all)
          in
          let subject = Aladdin.Aladdin_scheduler.make () in
          let cl_ref = fresh_cluster w ~n_machines in
          let cl_sub = fresh_cluster w ~n_machines in
          let batch_no = ref 0 in
          List.iter
            (fun wave ->
              incr batch_no;
              (if outsider && !batch_no mod 3 = 0 then
                 match !held with
                 | c :: rest ->
                     held := rest;
                     outsider_place cl_ref c;
                     outsider_place cl_sub c
                 | [] -> ());
              let o_ref =
                let m = Cluster.mark cl_ref in
                Fun.protect
                  ~finally:(fun () -> Cluster.release cl_ref m)
                  (fun () ->
                    Aladdin.Aladdin_scheduler.schedule_raw options cl_ref wave)
              in
              let o_sub = subject.Scheduler.schedule cl_sub wave in
              let ctx what =
                Printf.sprintf "%s%s: batch %d: %s" abbrev
                  (if outsider then " +outsider" else "")
                  !batch_no what
              in
              if o_ref.Scheduler.placed <> o_sub.Scheduler.placed then
                Alcotest.fail (ctx "placements differ");
              if
                ids o_ref.Scheduler.undeployed
                <> ids o_sub.Scheduler.undeployed
              then Alcotest.fail (ctx "undeployed differ");
              check int (ctx "migrations") o_ref.Scheduler.migrations
                o_sub.Scheduler.migrations;
              check int (ctx "preemptions") o_ref.Scheduler.preemptions
                o_sub.Scheduler.preemptions;
              if sorted_placements cl_ref <> sorted_placements cl_sub then
                Alcotest.fail (ctx "cluster states diverged"))
            (waves scheduled ~n_batches:50);
          check bool (abbrev ^ ": replay ran batches") true (!batch_no >= 2))
        Arrival.all)
    [ false; true ]

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

(* One search refreshed per batch against a fresh create per batch, with
   an outsider placing a held-back container between batches: both must
   pick the same machine for every container, since refresh reseeds from
   the cluster, not from what the search itself placed. *)
let test_refresh_matches_create_stats () =
  let params = { (Alibaba.scaled 0.002) with Alibaba.seed = 5 } in
  let w = Alibaba.generate params in
  let n_machines = machines_for w ~headroom:1.3 in
  let cl = fresh_cluster w ~n_machines in
  let all = Array.to_list w.Workload.containers in
  let held = ref (List.filteri (fun i _ -> i mod 10 = 9) all) in
  let scheduled = Array.of_list (List.filteri (fun i _ -> i mod 10 <> 9) all) in
  let wave_list = waves scheduled ~n_batches:10 in
  let first = List.hd wave_list in
  let fg0 = Aladdin.Flow_graph.build cl first in
  let carried = Aladdin.Search.create fg0 in
  List.iter
    (fun wave ->
      (match !held with
      | c :: rest ->
          held := rest;
          outsider_place cl c
      | [] -> ());
      let fg = Aladdin.Flow_graph.build cl wave in
      Aladdin.Search.refresh carried fg;
      let st = Aladdin.Search.stats carried in
      check int "refresh zeroes paths_explored" 0
        st.Aladdin.Search.paths_explored;
      check int "refresh zeroes il_skips" 0 st.Aladdin.Search.il_skips;
      check int "refresh zeroes dl_cuts" 0 st.Aladdin.Search.dl_cuts;
      let fresh = Aladdin.Search.create fg in
      (* identical machine choice for every container of the batch, and the
         same placements applied to the shared cluster *)
      Array.iter
        (fun c ->
          let a = Aladdin.Search.find_machine carried c in
          let b = Aladdin.Search.find_machine fresh c in
          check bool "same machine choice" true (a = b);
          match a with
          | Some mid ->
              (match Cluster.place cl c mid with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "refresh: inadmissible placement");
              Aladdin.Search.note_placement carried mid;
              Aladdin.Search.note_placement fresh mid
          | None -> ())
        wave)
    wave_list

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "carried search = fresh, +outsider" `Quick test_carried_equals_fresh_all_orders;
          Alcotest.test_case "search refresh = fresh create" `Quick
            test_refresh_matches_create_stats;
        ] );
      ( "properties",
        [
          Alcotest.test_case "no violations with and without IL/DL" `Quick
            test_no_violations_property;
        ] );
    ]
