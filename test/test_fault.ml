(* Fault-injection and error-path hardening tests: the Result-returning
   parser/solver APIs must never raise on fuzzed inputs, negative-cycle
   reports must describe a real cycle, and the batch-level recovery in the
   Aladdin scheduler must fall back to a cold solve (with identical
   placements) or reject the batch transactionally. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

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

let waves containers ~n_batches =
  let n = Array.length containers in
  let per = max 1 ((n + n_batches - 1) / n_batches) in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min per (n - i) in
      go (i + len) (Array.sub containers i len :: acc)
  in
  go 0 []

let sorted_placements cl = List.sort compare (Cluster.placements cl)

(* ---------- parser fuzz: Result APIs never raise ---------- *)

(* 10k seeded corruptions of a valid trace (plus raw junk): of_string must
   return Ok or Error, never escape with an exception. *)
let test_parsers_never_raise () =
  let w = Alibaba.generate { (Alibaba.scaled 0.01) with Alibaba.seed = 21 } in
  let base = Trace_io.to_string w in
  let base_lines = String.split_on_char '\n' base in
  let csv_base =
    "container_id,machine_id,time_stamp,app_du,status,cpu_request,cpu_limit,mem_size\n\
     c1,m1,0,app_A,started,400,800,50\n\
     c2,m2,0,app_B,started,800,800,25\n"
  in
  let csv_lines = String.split_on_char '\n' csv_base in
  let rng = Rng.create 0xFA117 in
  Fault.install
    (Fault.make ~trace_line_corruption:0.6 ~seed:0xFA117 ());
  Fun.protect ~finally:Fault.clear (fun () ->
      for case = 1 to 10_000 do
        let input =
          match case mod 5 with
          | 0 ->
              (* pure junk *)
              String.init (Rng.int rng 60) (fun _ ->
                  Char.chr (32 + Rng.int rng 95))
          | 1 ->
              (* shuffled valid lines *)
              let a = Array.of_list base_lines in
              Distribution.shuffle rng a;
              String.concat "\n" (Array.to_list a)
          | _ ->
              (* per-line seeded mangling through the harness *)
              String.concat "\n" (List.map Fault.corrupt_line base_lines)
        in
        (match Trace_io.of_string input with Ok _ | Error _ -> ());
        let csv_input =
          if case mod 2 = 0 then
            String.concat "\n" (List.map Fault.corrupt_line csv_lines)
          else input
        in
        match Alibaba_csv.of_string csv_input with Ok _ | Error _ -> ()
      done);
  check bool "corpus exercised" true (Obs.count (Obs.counter "trace.parse_errors") > 0)

(* ---------- solver fuzz: negative cycles reported, never raised ---------- *)

let random_graph rng ~n ~m ~max_cap ~min_cost ~max_cost =
  let g = Flownet.Graph.create ~arc_hint:(m + 4) n in
  for _ = 1 to m do
    let s = Rng.int rng n and d = Rng.int rng n in
    if s <> d then
      ignore
        (Flownet.Graph.add_arc g ~src:s ~dst:d
           ~cap:(1 + Rng.int rng max_cap)
           ~cost:(min_cost + Rng.int rng (max_cost - min_cost + 1)))
  done;
  g

let assert_valid_cycle g arcs =
  check bool "cycle nonempty" true (arcs <> []);
  let total = List.fold_left (fun acc a -> acc + Flownet.Graph.cost g a) 0 arcs in
  check bool "cycle cost negative" true (total < 0);
  let rec chained = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
        Flownet.Graph.dst g a = Flownet.Graph.src g b && chained rest
  in
  check bool "arcs head-to-tail" true (chained arcs);
  let first = List.hd arcs and last = List.nth arcs (List.length arcs - 1) in
  check int "cycle closes" (Flownet.Graph.src g first) (Flownet.Graph.dst g last)

let test_solvers_never_raise () =
  let rng = Rng.create 0x50F7 in
  let cycles = ref 0 in
  for _case = 1 to 800 do
    let n = 3 + Rng.int rng 10 in
    let m = n * (1 + Rng.int rng 4) in
    let g = random_graph rng ~n ~m ~max_cap:8 ~min_cost:(-6) ~max_cost:10 in
    (match Flownet.Spfa.run g ~src:0 with
    | Ok _ -> ()
    | Error (Flownet.Error.Negative_cycle arcs) ->
        incr cycles;
        assert_valid_cycle g arcs
    | Error _ -> ());
    Flownet.Graph.reset_flows g;
    match Flownet.Mincost.run g ~src:0 ~dst:(n - 1) with
    | Ok _ | Error _ -> ()
  done;
  check bool "corpus hit negative cycles" true (!cycles > 0)

(* ---------- scheduler recovery ---------- *)

let small_workload seed =
  Alibaba.generate { (Alibaba.scaled 0.004) with Alibaba.seed = seed }

(* A batch that trips an injected solver failure is rejected: every
   pre-batch placement survives, the whole wave is reported undeployed,
   and the next batch reseeds the carried search from the rolled-back
   cluster. *)
let test_rejected_batch_is_transactional () =
  let w = small_workload 32 in
  let n_machines = machines_for w ~headroom:1.25 in
  let ws = waves w.Workload.containers ~n_batches:4 in
  let wave1, wave2 =
    match ws with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 waves"
  in
  let cl = fresh_cluster w ~n_machines in
  let sched = Aladdin.Aladdin_scheduler.make () in
  ignore (sched.Scheduler.schedule cl wave1);
  let before = sorted_placements cl in
  check bool "wave 1 placed something" true (before <> []);
  let c_rejected = Obs.counter "aladdin.rejected_batches" in
  let rj0 = Obs.count c_rejected in
  Fault.install
    (Fault.make ~solver_step_failure:1.0 ~solver_failure_budget:1 ~seed:7 ());
  let outcome =
    Fun.protect ~finally:Fault.clear (fun () ->
        sched.Scheduler.schedule cl wave2)
  in
  check int "batch rejected" (rj0 + 1) (Obs.count c_rejected);
  check int "whole wave undeployed" (Array.length wave2)
    (List.length outcome.Scheduler.undeployed);
  check int "nothing placed" 0 (List.length outcome.Scheduler.placed);
  check bool "pre-batch placements restored" true
    (sorted_placements cl = before);
  (* the scheduler keeps working once the budget is exhausted, and places
     as a fresh search on a never-faulted cluster does *)
  let outcome2 = sched.Scheduler.schedule cl wave2 in
  check bool "recovers after faults stop" true
    (outcome2.Scheduler.placed <> []);
  let cl_ref = fresh_cluster w ~n_machines in
  let options = Aladdin.Aladdin_scheduler.default_options in
  ignore (Aladdin.Aladdin_scheduler.schedule_raw options cl_ref wave1);
  let ref2 = Aladdin.Aladdin_scheduler.schedule_raw options cl_ref wave2 in
  check bool "next batch places as a fresh search" true
    (outcome2.Scheduler.placed = ref2.Scheduler.placed)

(* ---------- replay under faults ---------- *)

let test_replay_survives_faults () =
  let w = small_workload 33 in
  let n_machines = machines_for w ~headroom:1.3 in
  let c_revoked = Obs.counter "replay.machine_revocations" in
  let rv0 = Obs.count c_revoked in
  Fault.install
    (Fault.make ~machine_revocation:0.8 ~solver_step_failure:0.2 ~seed:42 ());
  let r =
    Fun.protect ~finally:Fault.clear (fun () ->
        Replay.run_workload ~batch:24
          (Aladdin.Aladdin_scheduler.make ())
          w ~n_machines)
  in
  check bool "monotonic elapsed" true (r.Replay.elapsed_s >= 0.);
  check bool "revocations fired" true (Obs.count c_revoked > rv0);
  check int "every container accounted for" r.Replay.n_submitted
    (List.length r.Replay.outcome.Scheduler.placed
    + List.length r.Replay.outcome.Scheduler.undeployed)

let test_replay_monotonic_clock () =
  let w = small_workload 34 in
  let r =
    Replay.run_workload (Aladdin.Aladdin_scheduler.make ()) w ~n_machines:8
  in
  check bool "elapsed non-negative" true (r.Replay.elapsed_s >= 0.);
  check bool "per-container latency finite" true
    (Float.is_finite (Replay.per_container_ms r))

let () =
  Alcotest.run "fault"
    [
      ( "fuzz",
        [
          Alcotest.test_case "parsers never raise" `Quick
            test_parsers_never_raise;
          Alcotest.test_case "solvers never raise" `Quick
            test_solvers_never_raise;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rejected batch is transactional" `Quick
            test_rejected_batch_is_transactional;
        ] );
      ( "replay",
        [
          Alcotest.test_case "survives faults" `Quick
            test_replay_survives_faults;
          Alcotest.test_case "monotonic clock" `Quick
            test_replay_monotonic_clock;
        ] );
    ]
