(* CLI driver: reproduce any table/figure of the paper by id. Stack
   configuration (--sched/--cells/--serve/...) goes through the engine's
   one parser, so anything expressible here is the same stack the bench
   and fault drivers build. *)

let known =
  [
    ("table1", fun (_ : Exp_config.t) -> Table1.print ());
    ("fig8", Fig8.print);
    ("fig9", Fig9.print);
    ("fig10", Fig10.print);
    ("fig11", Fig10.print);
    (* Fig. 11 is printed by the Fig. 10 driver *)
    ("fig12", Fig12.print);
    ("fig13", Fig13.print);
    ("ablations", Ablations.print);
    ("hetero", Heterogeneous.print);
    ("online", Online.print);
    ("failure", Failure.print);
  ]

let run_one cfg id =
  match List.assoc_opt id known with
  | Some f -> f cfg
  | None ->
      Format.eprintf "unknown experiment %S@." id;
      exit 2

(* Open-loop serving sweep over the experiment workload, through the
   configured stack (ROADMAP item 3: the serving path is no longer
   bench-only). *)
let run_serve cfg spec (sv : Engine.Stack.serve) data_dir =
  let w = Exp_config.workload cfg in
  Format.printf "== Serving sweep: %s over %d machines ==@."
    (Engine.Stack.label spec) sv.Engine.Stack.serve_machines;
  let r = Engine.Stack.serve_sweep spec ~workload:w in
  if r.Serve.Runner.calibrated then
    Format.printf "calibrated base rate: %.1f req/s@." r.Serve.Runner.base_rate;
  List.iter
    (fun (p : Serve.Runner.point) ->
      Format.printf
        "  rate %9.1f/s: p50 %8.3f ms  p99 %9.3f ms  p999 %9.3f ms  depth_max \
         %5d  shed %d  rejected %d%s@."
        p.Serve.Runner.rate p.Serve.Runner.p50_ms p.Serve.Runner.p99_ms
        p.Serve.Runner.p999_ms p.Serve.Runner.queue_depth_max
        p.Serve.Runner.shed p.Serve.Runner.rejected
        (if p.Serve.Runner.saturated then "  [saturated]" else ""))
    r.Serve.Runner.points;
  match data_dir with
  | Some dir ->
      List.iter (fun p -> Format.printf "wrote %s@." p) (Data_export.serve ~dir r)
  | None -> ()

open Cmdliner

let ids =
  let doc =
    "Experiments to run: table1, fig8, fig9, fig10, fig11, fig12, fig13, \
     ablations, hetero, or 'all'."
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let scale =
  let doc = "Scale factor relative to the paper (1.0 = 10k machines/100k containers)." in
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed =
  let doc = "Workload generation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let data_dir =
  let doc = "Also write each figure's raw data as TSV files into this directory." in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

(* Stack flags: collected back into the engine's one argv vocabulary so
   Engine.Stack.of_args stays the single parser. *)
let sched =
  let doc =
    "Scheduler stack for the extra Fig. 9/13 column and --serve: aladdin, \
     aladdin-il, aladdin-plain, cells, firmament[-quincy|-trivial|-octopus], \
     medea, gokube, ladder, or a solver backend name."
  in
  Arg.(value & opt (some string) None & info [ "sched" ] ~docv:"NAME" ~doc)

let solver =
  let doc = "Pin a Flownet.Registry solver backend by name." in
  Arg.(value & opt (some string) None & info [ "solver" ] ~docv:"NAME" ~doc)

let cells =
  let doc = "Cell count for the sharded cells stack." in
  Arg.(value & opt (some int) None & info [ "cells" ] ~docv:"N" ~doc)

let cells_mode =
  let doc = "Cells coordinator mode: auto, domains or sequential." in
  Arg.(value & opt (some string) None & info [ "cells-mode" ] ~docv:"MODE" ~doc)

let deadline_ms =
  let doc = "Per-batch deadline (ms); wraps the stack in the ladder + auditor." in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let ladder =
  let doc = "Comma-separated ladder rungs behind the configured stack." in
  Arg.(value & opt (some string) None & info [ "ladder" ] ~docv:"RUNGS" ~doc)

let serve_flag =
  let doc =
    "Run an open-loop serving sweep of the configured stack over the \
     experiment workload (ALADDIN_SERVE_* tune rate/duration/queue)."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let stack_argv sched solver cells cells_mode deadline_ms ladder serve =
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  List.concat
    [
      opt "--sched" sched;
      opt "--solver" solver;
      opt "--cells" (Option.map string_of_int cells);
      opt "--cells-mode" cells_mode;
      opt "--deadline-ms" (Option.map string_of_float deadline_ms);
      opt "--ladder" ladder;
      (if serve then [ "--serve" ] else []);
    ]

let main ids scale seed data_dir sched solver cells cells_mode
    deadline_ms ladder serve =
  let argv =
    stack_argv sched solver cells cells_mode deadline_ms ladder serve
  in
  let stack =
    if argv = [] then None
    else
      match Engine.Stack.of_args argv with
      | Ok spec -> Some spec
      | Error e ->
          Format.eprintf "%s@." e;
          exit 2
  in
  let cfg = Exp_config.make ~seed ?stack ~factor:scale () in
  let ids =
    if List.mem "all" ids then List.map fst known
    else ids
  in
  (* fig11 duplicates fig10's driver; drop it when both are requested. *)
  let ids =
    if List.mem "fig10" ids then List.filter (fun i -> i <> "fig11") ids
    else ids
  in
  (match data_dir with
  | Some dir ->
      let written = Data_export.export ~ids ~dir cfg in
      List.iter (fun p -> Format.printf "wrote %s@." p) written
  | None -> ());
  List.iter (run_one cfg) ids;
  match stack with
  | Some ({ Engine.Stack.serve = Some sv; _ } as spec) ->
      run_serve cfg spec sv data_dir
  | _ -> ()

let cmd =
  let doc = "Reproduce the Aladdin paper's tables and figures" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const main $ ids $ scale $ seed $ data_dir $ sched $ solver $ cells
      $ cells_mode $ deadline_ms $ ladder $ serve_flag)

let () = exit (Cmd.eval cmd)
