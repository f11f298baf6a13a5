(* Differential suite for the engine: an [Engine.Stack.build]-assembled
   stack must place identically — same seed, same placement fingerprint —
   to the hand-built stack it replaced in bench/fault_smoke/sched_zoo.
   The hand-built sides below are copied verbatim from the pre-engine
   drivers and must NOT be rewritten in terms of the engine, or the test
   stops testing anything. Also covers the of_name/of_args/of_env parser
   vocabulary and the Obs epoch scoping [run_counters] relies on. *)

module Stack = Engine.Stack

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- the golden workload: seed 42 at 1/200 scale ---------- *)

let workload =
  lazy (Alibaba.generate { (Alibaba.scaled 0.005) with Alibaba.seed = 42 })

let replay sched =
  let w = Lazy.force workload in
  let n_machines = Gen.machines_for w ~headroom:1.3 in
  (Replay.run_workload ~batch:32 sched w ~n_machines).Replay.cluster

let replay_fp sched = Gen.placement_fingerprint (replay sched)

let engine_fp spec =
  let b = Stack.build spec in
  let fp = replay_fp b.Stack.scheduler in
  b.Stack.shutdown ();
  fp

(* ---------- hand-built stacks (pre-engine constructions) ---------- *)

let noop () = ()

(* A generous ladder deadline: no rung ever expires, so the wall-clock
   middleware stays deterministic and the fingerprints comparable. *)
let slack_ms = 60_000.

(* Each case: label, engine spec, hand construction returning the
   scheduler plus its shutdown. [solver] pins the registry backend on
   both sides — the matrix below runs every case under two backends. *)
let cases solver =
  let firmament_config =
    { Firmament.default with Firmament.solver }
  in
  [
    ( "aladdin",
      { Stack.default with Stack.solver = Some solver },
      fun () -> (Aladdin.Aladdin_scheduler.make (), noop) );
    ( "aladdin-plain",
      { Stack.default with Stack.il = false; dl = false;
        solver = Some solver },
      fun () ->
        ( Aladdin.Aladdin_scheduler.make
            ~options:
              {
                Aladdin.Aladdin_scheduler.default_options with
                il = false;
                dl = false;
              }
            (),
          noop ) );
    ( "cells",
      { Stack.default with Stack.kind = Stack.Cells; cells = Some 2;
        solver = Some solver },
      fun () ->
        let comp = Aladdin.Cells_scheduler.create ~cells:2 () in
        ( Aladdin.Cells_scheduler.scheduler comp,
          fun () -> Aladdin.Cells_scheduler.shutdown comp ) );
    ( "firmament",
      { Stack.default with Stack.kind = Stack.Firmament;
        cost_model = Cost_model.Quincy; reschd = 8; solver = Some solver },
      fun () ->
        ( Firmament.make
            ~config:
              {
                firmament_config with
                Firmament.cost_model = Cost_model.Quincy;
                reschd = 8;
              }
            (),
          noop ) );
    ( "medea",
      { Stack.default with Stack.kind = Stack.Medea; solver = Some solver },
      fun () -> (Medea.make (), noop) );
    ( "gokube",
      { Stack.default with Stack.kind = Stack.Gokube; solver = Some solver },
      fun () -> (Gokube.make (), noop) );
    ( "ladder",
      { Stack.default with Stack.kind = Stack.Ladder;
        deadline_ms = slack_ms; solver = Some solver },
      fun () -> (Ladder.make ~deadline_ms:slack_ms (), noop) );
    (* the fault_smoke ladder stack: Aladdin first rung, auditor outermost *)
    ( "aladdin+ladder+audit",
      { Stack.default with Stack.deadline_ms = slack_ms; audit = true;
        solver = Some solver },
      fun () ->
        ( Audit.wrap
            ~place:(fun cl c -> Aladdin.Migration.repair_placement cl c)
            (Ladder.make ~deadline_ms:slack_ms
               ~first:("aladdin", Aladdin.Aladdin_scheduler.make ())
               ()),
          noop ) );
  ]

let test_differential backend () =
  List.iter
    (fun (name, spec, hand) ->
      let sched, shutdown = hand () in
      let fp_hand = replay_fp sched in
      shutdown ();
      let fp_engine = engine_fp spec in
      check bool
        (Printf.sprintf "%s/%s fingerprint nonempty" name backend)
        true
        (String.length fp_hand > 0);
      check string
        (Printf.sprintf "%s/%s engine = hand" name backend)
        fp_hand fp_engine)
    (cases backend)

(* A registry-backend name builds a Firmament stack pinned to that
   solver, exactly as [Ladder.rung] / the serving phase always did. *)
let test_backend_name_stack () =
  match Stack.of_name "dinic" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      check bool "kind firmament" true (spec.Stack.kind = Stack.Firmament);
      check string "solver pinned" "dinic"
        (Option.value ~default:"?" spec.Stack.solver);
      let fp_hand =
        replay_fp
          (Firmament.make
             ~config:{ Firmament.default with Firmament.solver = "dinic" }
             ())
      in
      check string "backend-name engine = hand" fp_hand (engine_fp spec)

(* ---------- Firmament goldens ---------- *)

(* Firmament is the one stack that runs a min-cost flow solve per batch.
   Its engine-built and hand-built sides share that solve, so the
   differential above cannot see a change in the flow a backend routes.
   These seed-42 fingerprints and placed counts, one per registry
   backend, were captured before the warm-start solve path was removed
   and pin the cold solve. Dinic ignores costs, and its shortest hop path
   runs through the unscheduled node, so it places nothing. *)
let firmament_goldens =
  [
    ("mincost", 2665922339523803555, 499);
    ("cost-scaling", 2905329433991188255, 498);
    ("dinic", 0, 0);
    ("push-relabel", 3726208040979323217, 473);
  ]

let test_firmament_goldens () =
  List.iter
    (fun (backend, fingerprint, placed) ->
      let b =
        Stack.build
          { Stack.default with Stack.kind = Stack.Firmament;
            cost_model = Cost_model.Quincy; reschd = 8;
            solver = Some backend }
      in
      let cl = replay b.Stack.scheduler in
      b.Stack.shutdown ();
      check int (Printf.sprintf "firmament/%s placed" backend) placed
        (Cluster.n_placed cl);
      check int
        (Printf.sprintf "firmament/%s fingerprint" backend)
        fingerprint
        (Journal.placement_fingerprint (Cluster.placements cl)))
    firmament_goldens

(* ---------- parser vocabulary ---------- *)

let test_of_name () =
  (match Stack.of_name "aladdin-plain" with
  | Ok s ->
      check bool "plain: il off" true (not s.Stack.il);
      check bool "plain: dl off" true (not s.Stack.dl)
  | Error e -> Alcotest.fail e);
  (match Stack.of_name "firmament-octopus" with
  | Ok s ->
      check bool "octopus cost model" true
        (s.Stack.cost_model = Cost_model.Octopus)
  | Error e -> Alcotest.fail e);
  (match Stack.of_name "go-kube" with
  | Ok s -> check bool "go-kube alias" true (s.Stack.kind = Stack.Gokube)
  | Error e -> Alcotest.fail e);
  (match Stack.of_name "nonesuch" with
  | Ok _ -> Alcotest.fail "unknown scheduler accepted"
  | Error _ -> ());
  (* base fields survive the rename *)
  match
    Stack.of_name ~base:{ Stack.default with Stack.medea_a = 0.25 } "medea"
  with
  | Ok s ->
      check bool "base overlay kept" true (s.Stack.medea_a = 0.25)
  | Error e -> Alcotest.fail e

let test_of_args () =
  (match
     Stack.of_args
       [
         "--sched"; "cells"; "--cells"; "4"; "--cells-mode"; "sequential";
         "--solver"; "cost-scaling"; "--deadline-ms"; "2.5";
       ]
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check bool "cells kind" true (s.Stack.kind = Stack.Cells);
      check int "cell count" 4 (Option.value ~default:0 s.Stack.cells);
      check bool "sequential mode" true (s.Stack.cells_mode = Some `Sequential);
      check string "solver" "cost-scaling"
        (Option.value ~default:"?" s.Stack.solver);
      check bool "deadline" true (s.Stack.deadline_ms = 2.5);
      check bool "deadline arms audit" true s.Stack.audit);
  (match Stack.of_args [ "--deadline-ms"; "2"; "--no-audit" ] with
  | Ok s -> check bool "--no-audit disarms" true (not s.Stack.audit)
  | Error e -> Alcotest.fail e);
  (match Stack.of_args [ "--sched"; "nonesuch" ] with
  | Ok _ -> Alcotest.fail "unknown --sched accepted"
  | Error _ -> ());
  (match Stack.of_args [ "--solver"; "nonesuch" ] with
  | Ok _ -> Alcotest.fail "unknown --solver accepted"
  | Error _ -> ());
  (match Stack.of_args [ "--ladder"; "mincost,nonesuch" ] with
  | Ok _ -> Alcotest.fail "unknown rung accepted"
  | Error _ -> ());
  (match Stack.of_args [ "--cells" ] with
  | Ok _ -> Alcotest.fail "dangling flag accepted"
  | Error e -> check bool "dangling flag names itself" true
      (String.length e > 0 && String.sub e 0 7 = "--cells"));
  match Stack.of_args [ "--bogus" ] with
  | Ok _ -> Alcotest.fail "unknown flag accepted"
  | Error _ -> ()

(* Env overlay: set variables override the base, unset ones leave it
   alone. Only knobs whose "" value reads as the default are exercised,
   so that resetting to "" really clears them (Env.float_opt treats "" as
   absent, and "" names no Dijkstra policy). *)
let test_of_env () =
  Unix.putenv "ALADDIN_DEADLINE_MS" "1.5";
  Unix.putenv "ALADDIN_DIJKSTRA" "dial";
  let base = { Stack.default with Stack.reschd = 99 } in
  let s = Stack.of_env ~base () in
  check bool "deadline from env" true (s.Stack.deadline_ms = 1.5);
  check bool "deadline arms audit" true s.Stack.audit;
  check bool "dijkstra from env" true (s.Stack.dijkstra = Some Stack.Dial);
  check int "unset knob keeps base" 99 s.Stack.reschd;
  Unix.putenv "ALADDIN_DEADLINE_MS" "";
  Unix.putenv "ALADDIN_DIJKSTRA" "";
  let s = Stack.of_env ~base () in
  check bool "cleared env keeps base deadline" true (s.Stack.deadline_ms = 0.);
  check bool "cleared env keeps base dijkstra" true (s.Stack.dijkstra = None);
  check bool "cleared env keeps base audit" true (not s.Stack.audit)

(* ---------- obs epoch scoping ---------- *)

(* Two back-to-back engine runs must report identical per-run counter
   deltas; cumulative (pre-epoch) counters would double on the second. *)
let test_epoch_scoping () =
  let run () =
    let b = Stack.build Stack.default in
    let w = Lazy.force workload in
    let n_machines = Gen.machines_for w ~headroom:1.3 in
    ignore (Replay.run_workload ~batch:32 b.Stack.scheduler w ~n_machines);
    let counters = Stack.run_counters b in
    b.Stack.shutdown ();
    counters
  in
  let batches l =
    match List.assoc_opt "aladdin.batches" l with Some n -> n | None -> 0
  in
  let c1 = run () in
  let c2 = run () in
  check bool "first run counted batches" true (batches c1 > 0);
  check int "second run scoped to itself" (batches c1) (batches c2)

let test_epoch_primitive () =
  let c = Obs.counter "test_engine.epoch_probe" in
  Obs.incr c;
  let e = Obs.epoch () in
  Obs.incr c;
  Obs.incr c;
  check int "count_since sees only the delta" 2 (Obs.count_since e c);
  check bool "counters_since lists the probe" true
    (List.assoc_opt "test_engine.epoch_probe" (Obs.counters_since e) = Some 2)

let () =
  Alcotest.run "engine"
    [
      ( "parsers",
        [
          Alcotest.test_case "of_name" `Quick test_of_name;
          Alcotest.test_case "of_args" `Quick test_of_args;
          Alcotest.test_case "of_env" `Quick test_of_env;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "primitive" `Quick test_epoch_primitive;
          Alcotest.test_case "run scoping" `Slow test_epoch_scoping;
        ] );
      ( "differential",
        [
          Alcotest.test_case "mincost backend" `Slow
            (test_differential "mincost");
          Alcotest.test_case "cost-scaling backend" `Slow
            (test_differential "cost-scaling");
          Alcotest.test_case "backend-name stack" `Slow
            test_backend_name_stack;
          Alcotest.test_case "firmament goldens" `Slow
            test_firmament_goldens;
        ] );
    ]
