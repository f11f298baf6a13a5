(* Tests for the open-loop serving front end: admission queue semantics,
   batcher triggers, the runner end to end (underload, saturation, fault
   tolerance) and the load sweep. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let req ?(priority = 0) id =
  {
    Serve.Request.id;
    kind =
      Serve.Request.Place
        (Container.make ~id ~app:0 ~demand:(Resource.cpu_only 1.) ~priority
           ~arrival:id);
    priority;
    arrival = 0.;
  }

(* ---------- admission ---------- *)

let test_admission_fifo_and_priority_order () =
  let q = Serve.Admission.create ~bound:16 ~watermark:16 in
  List.iter
    (fun (id, p) ->
      match Serve.Admission.offer q (req ~priority:p id) with
      | Serve.Admission.Admitted [] -> ()
      | _ -> Alcotest.fail "unexpected backpressure")
    [ (0, 0); (1, 2); (2, 0); (3, 2); (4, 1) ];
  check int "length" 5 (Serve.Admission.length q);
  let ids =
    Serve.Admission.take q ~max:10
    |> List.map (fun (r : Serve.Request.t) -> r.id)
  in
  (* priority class 2 first (FIFO within), then 1, then 0 *)
  Alcotest.(check (list int)) "drain order" [ 1; 3; 4; 0; 2 ] ids;
  check int "drained" 0 (Serve.Admission.length q)

let test_admission_rejects_at_bound () =
  let q = Serve.Admission.create ~bound:3 ~watermark:3 in
  for i = 0 to 2 do
    ignore (Serve.Admission.offer q (req i))
  done;
  (* equal priority: no victim, reject *)
  (match Serve.Admission.offer q (req 3) with
  | Serve.Admission.Rejected -> ()
  | _ -> Alcotest.fail "expected rejection at bound");
  (* higher priority displaces the oldest lowest-priority entry *)
  (match Serve.Admission.offer q (req ~priority:1 4) with
  | Serve.Admission.Admitted [ shed ] -> check int "oldest shed" 0 shed.id
  | _ -> Alcotest.fail "expected displacement");
  check int "still at bound" 3 (Serve.Admission.length q)

let test_admission_watermark_sheds_lower () =
  let q = Serve.Admission.create ~bound:16 ~watermark:3 in
  for i = 0 to 2 do
    ignore (Serve.Admission.offer q (req i))
  done;
  (* crossing the watermark with a higher-priority arrival sheds the
     lowest class back down to the watermark *)
  (match Serve.Admission.offer q (req ~priority:2 3) with
  | Serve.Admission.Admitted [ shed ] -> check int "oldest shed" 0 shed.id
  | Serve.Admission.Admitted l ->
      Alcotest.failf "expected 1 shed, got %d" (List.length l)
  | Serve.Admission.Rejected -> Alcotest.fail "not at bound");
  (* an equal-priority arrival cannot shed anyone *)
  (match Serve.Admission.offer q (req 5) with
  | Serve.Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "equal priority must not shed");
  check int "above watermark tolerated" 4 (Serve.Admission.length q)

(* ---------- batcher ---------- *)

let test_batcher_deadline_flush () =
  let des : int Des.t = Des.create () in
  let b = Serve.Batcher.create ~size:8 ~deadline:0.5 in
  Serve.Batcher.arm b des ~flush:(fun g -> g);
  Serve.Batcher.arm b des ~flush:(fun g -> g);
  check int "one timer armed" 1 (Des.pending des);
  (match Des.next des with
  | Some (t, gen) ->
      check bool "fires at deadline" true (t = 0.5);
      check bool "current generation" true
        (Serve.Batcher.note_fired b ~gen);
      check bool "stale after fire" false (Serve.Batcher.note_fired b ~gen)
  | None -> Alcotest.fail "flush did not fire");
  check bool "ready by size" true (Serve.Batcher.size_ready b ~queued:8)

let test_batcher_disarm_cancels () =
  let des : int Des.t = Des.create () in
  let b = Serve.Batcher.create ~size:8 ~deadline:0.5 in
  Serve.Batcher.arm b des ~flush:(fun g -> g);
  Serve.Batcher.disarm b des;
  check int "event cancelled" 0 (Des.pending des);
  check bool "des drained" true (Des.next des = None);
  (* re-arm uses a fresh generation *)
  Serve.Batcher.arm b des ~flush:(fun g -> g);
  match Des.next des with
  | Some (_, gen) ->
      check bool "new generation valid" true
        (Serve.Batcher.note_fired b ~gen)
  | None -> Alcotest.fail "re-armed flush did not fire"

(* ---------- runner ---------- *)

let small_workload seed =
  Alibaba.generate { (Alibaba.scaled 0.004) with Alibaba.seed = seed }

let cluster_for w n =
  let topo = Workload.topology w ~n_machines:n in
  Cluster.create topo ~constraints:(Workload.constraint_set w)

let base_cfg =
  {
    Serve.Runner.rate = 500.;
    duration = 0.5;
    queue_bound = 256;
    watermark = 192;
    batch_size = 16;
    batch_deadline = 0.005;
    overload_deadline_ms = 25.;
    service_ms = 0.;
    seed = 11;
    modulation = Serve.Arrivals.Steady;
  }

let test_runner_underload_slo () =
  let w = small_workload 3 in
  let p =
    Serve.Runner.run base_cfg
      ~sched:(Gokube.make ())
      ~cluster:(cluster_for w 64)
      ~workload:w
  in
  check bool "arrivals happened" true (p.arrivals > 100);
  check int "all accounted" p.arrivals (p.admitted + p.rejected);
  check bool "batches ran" true (p.batches > 0);
  check bool "containers placed" true (p.placed > 0);
  check bool "latency recorded" true (p.samples > 0);
  check bool "tails monotone" true
    (p.p50_ms <= p.p99_ms && p.p99_ms <= p.p999_ms && p.p999_ms <= p.max_ms);
  check bool "virtual time advanced" true (p.sim_s > 0.);
  check bool "no failed batches" true (p.failed_batches = 0)

let test_runner_saturates_and_engages_ladder () =
  let w = small_workload 5 in
  (* a deliberately slow scheduler: ~1ms of wall time per batch, so a
     4000/s open-loop rate is far beyond capacity and the tiny queue
     must shed/reject and cross its watermark *)
  let inner = Gokube.make () in
  let slow =
    {
      Scheduler.name = "slow";
      schedule =
        (fun cluster batch ->
          let t0 = Obs.now_ns () in
          while Int64.sub (Obs.now_ns ()) t0 < 1_000_000L do
            ()
          done;
          inner.Scheduler.schedule cluster batch);
    }
  in
  let rung_hits = Obs.counter "ladder.rung.serve" in
  let before = Obs.count rung_hits in
  let p =
    Serve.Runner.run
      {
        base_cfg with
        rate = 50_000.;
        duration = 0.1;
        queue_bound = 64;
        watermark = 32;
        overload_deadline_ms = 200.;
      }
      ~sched:slow
      ~cluster:(cluster_for w 64)
      ~workload:w
  in
  check bool "saturated" true p.saturated;
  check bool "backpressure engaged" true (p.rejected > 0 || p.shed > 0);
  check bool "queue crossed the watermark" true (p.queue_depth_max > 32);
  check bool "overload batches took the ladder" true (p.overload_batches > 0);
  check bool "ladder first rung counted" true
    (Obs.count rung_hits - before > 0);
  check int "all accounted" p.arrivals (p.admitted + p.rejected)

let test_runner_survives_injected_faults () =
  let w = small_workload 7 in
  (* every batch entry trips until the budget runs out; the runner must
     fail those batches cleanly and keep serving *)
  Fault.install
    (Fault.make ~solver_step_failure:1.0 ~solver_failure_budget:3 ~seed:13 ());
  let sched = Scheduler.with_faults ~label:"serve.test" (Gokube.make ()) in
  let p =
    Serve.Runner.run base_cfg ~sched ~cluster:(cluster_for w 64) ~workload:w
  in
  Fault.clear ();
  check int "three batches failed" 3 p.failed_batches;
  check bool "failed requests counted" true (p.failed_requests > 0);
  check bool "serving continued" true (p.batches > p.failed_batches);
  check bool "later batches placed containers" true (p.placed > 0)

let test_sweep_reaches_saturation () =
  let w = small_workload 9 in
  let cfg = { base_cfg with rate = 0.; duration = 0.2; queue_bound = 64;
              watermark = 48 } in
  let r =
    Serve.Runner.sweep ~max_points:6 cfg
      ~make_sched:(fun () -> Gokube.make ())
      ~make_cluster:(fun () -> cluster_for w 48)
      ~workload:w
  in
  check bool "calibrated base rate" true r.calibrated;
  check bool "base rate positive" true (r.base_rate > 0.);
  check bool "has points" true (List.length r.points > 0);
  check bool "rates increase" true
    (let rec mono = function
       | (a : Serve.Runner.point) :: (b :: _ as rest) ->
           a.rate < b.rate && mono rest
       | _ -> true
     in
     mono r.points);
  let last = List.nth r.points (List.length r.points - 1) in
  check bool "sweep ends saturated" true last.saturated

(* One descheduled calibration probe must not set the base rate: a
   single stall taken as the service time cuts the rate by orders of
   magnitude, and every sweep point ends underloaded. The first scheduler
   [sweep] makes is the calibration's; it stalls 50 ms on its second
   batch. *)
let test_sweep_ignores_one_slow_probe () =
  let w = small_workload 9 in
  let cfg = { base_cfg with rate = 0.; duration = 0.2; queue_bound = 64;
              watermark = 48 } in
  let made = ref 0 in
  let make_sched () =
    incr made;
    let inner = Gokube.make () in
    if !made > 1 then inner
    else begin
      let calls = ref 0 in
      {
        Scheduler.name = "stall-once";
        schedule =
          (fun cluster batch ->
            incr calls;
            if !calls = 2 then begin
              let t0 = Obs.now_ns () in
              while Int64.sub (Obs.now_ns ()) t0 < 50_000_000L do
                ()
              done
            end;
            inner.Scheduler.schedule cluster batch);
      }
    end
  in
  let r =
    Serve.Runner.sweep ~max_points:6 cfg ~make_sched
      ~make_cluster:(fun () -> cluster_for w 48)
      ~workload:w
  in
  let last = List.nth r.points (List.length r.points - 1) in
  check bool "sweep ends saturated" true last.saturated

(* A fixed service time makes capacity exact: one full batch per
   [service_ms], with no probe run. *)
let test_sweep_fixed_service_rate () =
  let w = small_workload 9 in
  let cfg = { base_cfg with rate = 0.; duration = 0.2; queue_bound = 64;
              watermark = 48; service_ms = 2. } in
  let probes = ref 0 in
  let r =
    Serve.Runner.sweep ~max_points:6 cfg
      ~make_sched:(fun () -> incr probes; Gokube.make ())
      ~make_cluster:(fun () -> cluster_for w 48)
      ~workload:w
  in
  check bool "calibrated" true r.calibrated;
  check bool "base rate = batch_size / service" true
    (Float.abs (r.base_rate -. 8000.) < 1e-6);
  check int "no probe scheduler" (List.length r.points) !probes;
  let last = List.nth r.points (List.length r.points - 1) in
  check bool "sweep ends saturated" true last.saturated

(* ---------- crash-consistent resume ---------- *)

(* Crash consistency needs replayable batch timing, so the resume tests
   pin a fixed virtual service time. *)
let resume_cfg =
  {
    base_cfg with
    rate = 400.;
    duration = 0.3;
    queue_bound = 128;
    watermark = 96;
    service_ms = 2.;
    seed = 17;
  }

let resume_workload () = small_workload 13

let run_serve ?journal cfg w =
  let cluster = cluster_for w 64 in
  let p = Serve.Runner.run ?journal cfg ~sched:(Gokube.make ()) ~cluster
            ~workload:w in
  (p, Journal.placement_fingerprint (Cluster.placements cluster))

(* Kill a journaled serving run at an arbitrary probe offset, resume it,
   and demand the resumed run be indistinguishable from an uninterrupted
   one: identical placements, identical admission accounting, monotone
   latency tails, and exactly the journaled prefix replayed. *)
let resume_drill ~ref_point ~ref_fp w kill =
  let path = Filename.temp_file "serve_resume" ".log" in
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Sys.remove path)
    (fun () ->
      Fault.install (Fault.make ~process_kill_after:kill ~seed:3 ());
      (match run_serve ~journal:path resume_cfg w with
      | _ -> Alcotest.fail "kill probe never fired"
      | exception Fault.Killed _ -> ());
      Fault.clear ();
      let n_prefix = List.length (Journal.load path) in
      let replayed0 = Obs.count (Obs.counter "serve.resume.replayed_batches") in
      let p, fp = run_serve ~journal:path resume_cfg w in
      let ctx fmt = Printf.sprintf ("kill %d: " ^^ fmt) kill in
      check bool (ctx "placements identical") true (fp = ref_fp);
      check int (ctx "arrivals") ref_point.Serve.Runner.arrivals p.arrivals;
      check int (ctx "admitted") ref_point.Serve.Runner.admitted p.admitted;
      check int (ctx "rejected") ref_point.Serve.Runner.rejected p.rejected;
      check int (ctx "batches") ref_point.Serve.Runner.batches p.batches;
      check int (ctx "placed") ref_point.Serve.Runner.placed p.placed;
      check int (ctx "accounting exact") p.arrivals (p.admitted + p.rejected);
      check int (ctx "journaled prefix replayed")
        n_prefix
        (Obs.count (Obs.counter "serve.resume.replayed_batches") - replayed0);
      check bool (ctx "tails monotone") true
        (p.p50_ms <= p.p99_ms && p.p99_ms <= p.p999_ms
        && p.p999_ms <= p.max_ms))

let test_resume_fixed_kill_offsets () =
  Fault.clear ();
  let w = resume_workload () in
  let ref_point, ref_fp = run_serve resume_cfg w in
  check bool "reference run served traffic" true
    (ref_point.batches > 2 && ref_point.placed > 0);
  (* offset 0 kills before the first commit: resume from an empty journal
     is a fresh run; later offsets leave a real prefix *)
  List.iter (resume_drill ~ref_point ~ref_fp w) [ 0; 1; 2; 5 ]

let resume_prop =
  QCheck.Test.make ~count:6 ~name:"resume is exact at any kill offset"
    QCheck.(int_range 0 9)
    (fun kill ->
      Fault.clear ();
      let w = resume_workload () in
      let ref_point, ref_fp = run_serve resume_cfg w in
      resume_drill ~ref_point ~ref_fp w kill;
      true)

let test_arrivals_deterministic_and_modulated () =
  let gaps seed modulation =
    let a =
      Serve.Arrivals.create ~modulation ~rate:100. ~seed ()
    in
    let now = ref 0. in
    List.init 200 (fun _ ->
        let g = Serve.Arrivals.next_gap a ~now:!now in
        now := !now +. g;
        g)
  in
  check bool "same seed, same stream" true
    (gaps 4 Serve.Arrivals.Steady = gaps 4 Serve.Arrivals.Steady);
  check bool "different seed, different stream" true
    (gaps 4 Serve.Arrivals.Steady <> gaps 5 Serve.Arrivals.Steady);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let steady = mean (gaps 4 Serve.Arrivals.Steady) in
  check bool "steady mean near 1/rate" true
    (steady > 0.005 && steady < 0.02);
  (* a burst modulation strictly increases the average rate *)
  let burst =
    mean (gaps 4 (Serve.Arrivals.Burst { period = 0.1; duty = 0.5; amp = 4. }))
  in
  check bool "burst arrives faster" true (burst < steady)

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "fifo within, priority across" `Quick
            test_admission_fifo_and_priority_order;
          Alcotest.test_case "reject or displace at bound" `Quick
            test_admission_rejects_at_bound;
          Alcotest.test_case "watermark sheds lower priority" `Quick
            test_admission_watermark_sheds_lower;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "deadline flush with generations" `Quick
            test_batcher_deadline_flush;
          Alcotest.test_case "size trigger cancels the flush" `Quick
            test_batcher_disarm_cancels;
        ] );
      ( "runner",
        [
          Alcotest.test_case "underload meets SLO accounting" `Quick
            test_runner_underload_slo;
          Alcotest.test_case "saturation sheds and takes the ladder" `Quick
            test_runner_saturates_and_engages_ladder;
          Alcotest.test_case "injected faults fail batches cleanly" `Quick
            test_runner_survives_injected_faults;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "load sweep reaches saturation" `Quick
            test_sweep_reaches_saturation;
          Alcotest.test_case "one slow probe leaves the sweep saturating"
            `Quick test_sweep_ignores_one_slow_probe;
          Alcotest.test_case "fixed service time sets the base rate" `Quick
            test_sweep_fixed_service_rate;
          Alcotest.test_case "arrival process is seeded and modulated"
            `Quick test_arrivals_deterministic_and_modulated;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill/resume is exact at fixed offsets" `Quick
            test_resume_fixed_kill_offsets;
          QCheck_alcotest.to_alcotest resume_prop;
        ] );
    ]
