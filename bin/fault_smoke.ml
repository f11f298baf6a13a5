(* Fuzz smoke driver: run the trace parsers, flow solvers, replay loop and
   the scheduler stacks under an installed fault configuration for a
   bounded wall-clock budget. Any exception escaping a Result API or the
   recovery machinery is a bug — the process exits nonzero.

   Knobs:
     ALADDIN_FAULT_SMOKE_SECS   wall-clock budget (default 5)
     ALADDIN_FAULT_SMOKE_SEED   base seed (default 1337)
     ALADDIN_FAULT_RATE         probability for every fault class (default 0.3)
     ALADDIN_DEADLINE_MS        per-attempt budget for the ladder exercise
                                (default 0.05 — tight on purpose, so the
                                degradation ladder and auditor actually fire)

   Each round also crash-drills the journal: a replay is killed mid-run by
   a process-kill probe, resumed from the last committed batch, and the
   resumed placements are checked bit-for-bit against an uninterrupted
   run of the same fault stream.

   Two domain-level drills ride every round as well: a cells stack in
   domains mode is driven through one cell crash (the batch is rejected)
   and one mirror corruption (phase-2 Desync, batch retried); and the
   serving front end is killed mid-sweep by a process-kill probe and
   resumed from its journal, with the resumed placements and accounting
   checked against an uninterrupted run. *)

let budget_s = float_of_int (Engine.Env.int "ALADDIN_FAULT_SMOKE_SECS" 5)
let base_seed = Engine.Env.int "ALADDIN_FAULT_SMOKE_SEED" 1337

(* The stack knobs (ladder deadline, solver pin) come from the engine's
   one env parser; the fault rate is this driver's own knob, since no
   stack installs the fault harness. The defaults are deliberately hot —
   a 0.3 fault rate and a 0.05 ms deadline so the recovery machinery and
   the degradation ladder actually fire. *)
let base_spec =
  Engine.Stack.of_env ~base:{ Engine.Stack.default with deadline_ms = 0.05 } ()

let rate = Engine.Env.float "ALADDIN_FAULT_RATE" 0.3
let deadline_ms = base_spec.Engine.Stack.deadline_ms

(* Middleware-free spec of one kind: the replay/baseline/journal
   exercises run the bare schedulers, the ladder exercise adds the
   deadline + auditor back. *)
let bare kind =
  { base_spec with Engine.Stack.kind; deadline_ms = 0.; audit = false }

let sched_of spec = (Engine.Stack.build spec).Engine.Stack.scheduler
let now_s () = Int64.to_float (Obs.now_ns ()) *. 1e-9

let fault_config ~seed ~budget =
  Fault.make ~trace_line_corruption:rate ~arc_cost_flip:rate
    ~arc_capacity_drop:rate ~machine_revocation:rate ~solver_step_failure:rate
    ~solver_failure_budget:budget ~seed ()

(* ---- individual exercises (each runs under an installed config) ---- *)

let exercise_parsers rng base_trace base_csv =
  let mangle s =
    String.concat "\n"
      (List.map Fault.corrupt_line (String.split_on_char '\n' s))
  in
  for _ = 1 to 50 do
    (match Trace_io.of_string (mangle base_trace) with Ok _ | Error _ -> ());
    (match Alibaba_csv.of_string (mangle base_csv) with Ok _ | Error _ -> ());
    let junk =
      String.init (Rng.int rng 80) (fun _ -> Char.chr (32 + Rng.int rng 95))
    in
    match Trace_io.of_string junk with Ok _ | Error _ -> ()
  done

(* The backend under test comes from ALADDIN_SOLVER (CI runs this smoke
   once per registered backend). *)
let solver_backend = Flownet.Registry.of_env ()

let exercise_solver rng =
  for _ = 1 to 20 do
    let n = 4 + Rng.int rng 12 in
    let g = Flownet.Graph.create ~arc_hint:(n * 4) n in
    for _ = 1 to n * 3 do
      let s = Rng.int rng n and d = Rng.int rng n in
      if s <> d then begin
        let cost, cap =
          Fault.perturb_arc ~cost:(Rng.int rng 12) ~capacity:(1 + Rng.int rng 9)
        in
        ignore (Flownet.Graph.add_arc g ~src:s ~dst:d ~cap ~cost)
      end
    done;
    match Flownet.Registry.solve solver_backend g ~src:0 ~dst:(n - 1) with
    | Ok _ | Error _ -> ()
  done

let exercise_replay w ~n_machines =
  let sched = sched_of (bare Engine.Stack.Aladdin) in
  let r = Replay.run_workload ~batch:32 sched w ~n_machines in
  ignore r.Replay.elapsed_s

let exercise_baselines w ~n_machines =
  List.iter
    (fun kind ->
      ignore
        (Replay.run_workload ~batch:32 (sched_of (bare kind)) w ~n_machines))
    [ Engine.Stack.Gokube; Engine.Stack.Medea; Engine.Stack.Firmament ]

(* Degradation ladder under faults: Aladdin first rung, registry rungs
   behind it, the invariant auditor outermost. Unrepaired violations are
   exactly the silent-corruption bugs this driver exists to catch. *)
let exercise_ladder w ~n_machines =
  let sched =
    sched_of { base_spec with Engine.Stack.kind = Engine.Stack.Aladdin;
               deadline_ms; audit = true }
  in
  ignore (Replay.run_workload ~batch:32 sched w ~n_machines);
  let unrepaired = Obs.count (Obs.counter "audit.unrepaired") in
  if unrepaired > 0 then
    failwith (Printf.sprintf "auditor left %d violations unrepaired" unrepaired)

let fresh_cluster w ~n_machines =
  Cluster.create
    (Workload.topology w ~n_machines)
    ~constraints:(Workload.constraint_set w)

(* Crash drill: kill a journaled replay after a couple of commits, resume
   from the journal, and demand the resumed run land the exact placements
   of an uninterrupted one. Deadline-free: the ladder's wall-clock budget
   would make the comparison nondeterministic. *)
let exercise_journal w ~n_machines ~seed =
  let cfg () =
    Fault.make ~machine_revocation:rate ~solver_step_failure:(rate /. 4.)
      ~seed ()
  in
  Fault.install (cfg ());
  let r_ref =
    Replay.run ~batch:32
      (sched_of (bare Engine.Stack.Aladdin))
      ~cluster:(fresh_cluster w ~n_machines)
      ~containers:w.Workload.containers
  in
  let fp_ref =
    Journal.placement_fingerprint (Cluster.placements r_ref.Replay.cluster)
  in
  let path = Filename.temp_file "fault_smoke_journal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Journal.create path in
      Fault.install { (cfg ()) with Fault.process_kill_after = 2 };
      (match
         Replay.run ~batch:32 ~journal:j
           (sched_of (bare Engine.Stack.Aladdin))
           ~cluster:(fresh_cluster w ~n_machines)
           ~containers:w.Workload.containers
       with
      | _ -> failwith "journal crash drill: kill probe never fired"
      | exception Fault.Killed _ -> ());
      Journal.close j;
      match Journal.last path with
      | None -> failwith "journal crash drill: no durable commit survived"
      | Some commit ->
          Fault.install (cfg ());
          let j2 = Journal.open_append path in
          let r2 =
            Fun.protect
              ~finally:(fun () -> Journal.close j2)
              (fun () ->
                Replay.run ~batch:32 ~journal:j2 ~resume:commit
                  (sched_of (bare Engine.Stack.Aladdin))
                  ~cluster:(fresh_cluster w ~n_machines)
                  ~containers:w.Workload.containers)
          in
          let fp =
            Journal.placement_fingerprint
              (Cluster.placements r2.Replay.cluster)
          in
          if fp <> fp_ref then
            failwith "journal crash drill: resumed placements diverged")

(* ---- domain-level drills: cell faults, serve crash recovery ---- *)

(* Cells 4 needs a topology with at least four racks; the default rack
   width would want hundreds of machines, so the cells drill runs on a
   narrow 4-machines-per-rack layout. *)
let cells_cluster w ~n_machines =
  Cluster.create
    (Workload.topology w ~machines_per_rack:4 ~racks_per_group:2 ~n_machines)
    ~constraints:(Workload.constraint_set w)

(* Replay the workload through cells(4) in domains mode under [fault];
   the run must account for every container and move [counter]. *)
let cells_drill w ~n_machines ~fault ~counter what =
  let c = Obs.counter counter in
  let before = Obs.count c in
  let built =
    Engine.Stack.build
      {
        (bare Engine.Stack.Cells) with
        Engine.Stack.cells = Some 4;
        cells_mode = Some `Domains;
      }
  in
  Fault.install fault;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Fault.clear ();
        built.Engine.Stack.shutdown ())
      (fun () ->
        Replay.run ~batch:16 built.Engine.Stack.scheduler
          ~cluster:(cells_cluster w ~n_machines)
          ~containers:w.Workload.containers)
  in
  let o = r.Replay.outcome in
  if
    List.length o.Scheduler.placed + List.length o.Scheduler.undeployed
    <> r.Replay.n_submitted
  then failwith (Printf.sprintf "cells %s drill: containers lost" what);
  if Obs.count c = before then
    failwith (Printf.sprintf "cells %s drill: %s never moved" what counter)

(* A crashing cell rejects its batch whole; a corrupted mirror trace
   desyncs phase 2 and the batch is retried. *)
let exercise_cells w ~n_machines ~seed =
  cells_drill w ~n_machines "crash" ~counter:"cells.rejected_batches"
    ~fault:(Fault.make ~cell_crash:1.0 ~cell_fault_budget:1 ~seed ());
  cells_drill w ~n_machines "corruption" ~counter:"cells.batch_retries"
    ~fault:(Fault.make ~cell_corrupt:1.0 ~cell_fault_budget:1 ~seed ())

(* Serve crash drill: a journaled serving run under a fixed virtual
   service time is killed mid-sweep by a process-kill probe and resumed
   from the journal; the resumed run must land the exact placements and
   admission accounting of an uninterrupted one. *)
let exercise_serve_resume w ~n_machines ~seed =
  let cfg =
    {
      Serve.Runner.rate = 400.;
      duration = 0.3;
      queue_bound = 128;
      watermark = 96;
      batch_size = 16;
      batch_deadline = 0.005;
      overload_deadline_ms = 25.;
      service_ms = 2.;
      seed;
      modulation = Serve.Arrivals.Steady;
    }
  in
  let run ?journal () =
    let cluster = fresh_cluster w ~n_machines in
    let p =
      Serve.Runner.run ?journal cfg
        ~sched:(sched_of (bare Engine.Stack.Gokube))
        ~cluster ~workload:w
    in
    (p, Journal.placement_fingerprint (Cluster.placements cluster))
  in
  Fault.clear ();
  let p_ref, fp_ref = run () in
  let path = Filename.temp_file "fault_smoke_serve" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fault.install (Fault.make ~process_kill_after:3 ~seed ());
      (match run ~journal:path () with
      | _ -> failwith "serve crash drill: kill probe never fired"
      | exception Fault.Killed _ -> ());
      Fault.clear ();
      let p, fp = run ~journal:path () in
      if fp <> fp_ref then
        failwith "serve crash drill: resumed placements diverged";
      if
        p.Serve.Runner.admitted <> p_ref.Serve.Runner.admitted
        || p.Serve.Runner.batches <> p_ref.Serve.Runner.batches
        || p.Serve.Runner.placed <> p_ref.Serve.Runner.placed
      then failwith "serve crash drill: resumed accounting diverged")

let () =
  let w =
    Alibaba.generate { (Alibaba.scaled 0.005) with Alibaba.seed = base_seed }
  in
  let total =
    (Resource.to_array (Workload.total_demand w)).(Resource.cpu_dim)
  in
  let per =
    (Resource.to_array w.Workload.machine_capacity).(Resource.cpu_dim)
  in
  let n_machines =
    max 4 (int_of_float (ceil (1.3 *. float_of_int total /. float_of_int per)))
  in
  let base_trace = Trace_io.to_string w in
  let base_csv =
    "container_id,machine_id,time_stamp,app_du,status,cpu_request,cpu_limit,mem_size\n\
     c1,m1,0,app_A,started,400,800,50\n\
     c2,m2,0,app_B,started,800,800,25\n\
     c3,m3,0,app_B,started,800,800,25\n"
  in
  let deadline = now_s () +. budget_s in
  let round = ref 0 in
  (try
     while now_s () < deadline do
       incr round;
       let seed = base_seed + !round in
       let rng = Rng.create seed in
       Fault.install (fault_config ~seed ~budget:(-1));
       exercise_parsers rng base_trace base_csv;
       exercise_solver rng;
       exercise_replay w ~n_machines;
       if !round mod 3 = 0 then exercise_baselines w ~n_machines;
       exercise_ladder w ~n_machines;
       (* finite budgets walk the reject path *)
       Fault.install (fault_config ~seed ~budget:(1 + (!round mod 2)));
       exercise_replay w ~n_machines;
       exercise_journal w ~n_machines ~seed;
       exercise_cells w ~n_machines ~seed;
       exercise_serve_resume w ~n_machines ~seed;
       Fault.clear ()
     done
   with e ->
     Fault.clear ();
     Printf.eprintf "fault_smoke: uncaught exception in round %d: %s\n%!"
       !round (Printexc.to_string e);
     exit 1);
  Printf.printf "fault_smoke: %d rounds in %.1fs, no uncaught exceptions\n"
    !round budget_s;
  List.iter
    (fun name -> Printf.printf "  %-32s %d\n" name (Obs.count (Obs.counter name)))
    [
      "fault.injected_solver_failures";
      "fault.corrupted_lines";
      "fault.flipped_arcs";
      "fault.revoked_machines";
      "trace.parse_errors";
      "mincost.errors";
      Printf.sprintf "solver.%s.solves" (Flownet.Registry.name solver_backend);
      Printf.sprintf "solver.%s.errors" (Flownet.Registry.name solver_backend);
      "aladdin.rejected_batches";
      "aladdin.restore_drops";
      "replay.machine_revocations";
      "replay.failed_batches";
      "deadline.exceeded";
      "ladder.escalations";
      "ladder.shed_containers";
      "audit.violations";
      "audit.repairs";
      "audit.unrepaired";
      "journal.commits";
      "journal.resumes";
      "fault.process_kills";
      "cells.desyncs";
      "cells.batch_retries";
      "cells.rejected_batches";
      "serve.taken_requests";
      "serve.resume.resumes";
      "serve.resume.replayed_batches";
      "serve.resume.replayed_requests";
      "fault.cell_crashes";
      "fault.cell_corruptions";
    ]
