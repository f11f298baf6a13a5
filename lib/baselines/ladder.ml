(* Rung construction for the degradation ladder: maps the rung names
   Flownet.Registry.rungs_of_env accepts onto actual schedulers. Flow-solver
   names become a Firmament stack pinned to that backend (the cheap greedy
   extraction is shared; only the solve under it degrades), and "gokube" is
   the Go-Kube scorer — the terminal rung that touches no flow network at
   all, so it can never exhaust a solver budget. *)

let rung name =
  if name = "gokube" then Gokube.make ()
  else
    match Flownet.Registry.find name with
    | Some _ ->
        Firmament.make ~config:{ Firmament.default with solver = name } ()
    | None ->
        invalid_arg
          (Printf.sprintf "Ladder.rung: unknown rung %s (known: %s)" name
             (String.concat ", " (Flownet.Registry.names () @ [ "gokube" ])))

let default_rungs = Flownet.Registry.default_rungs @ [ "gokube" ]

let make ?deadline_ms ?shed ?rungs ?first () =
  let names =
    match rungs with
    | Some r -> r
    | None when Sys.getenv_opt "ALADDIN_LADDER" <> None ->
        Flownet.Registry.rungs_of_env ()
    | None ->
        (* the default ends on the solver-free terminal rung *)
        default_rungs
  in
  let names = if names = [] then default_rungs else names in
  let built = List.map (fun n -> (n, rung n)) names in
  let built = match first with Some r -> r :: built | None -> built in
  Scheduler.with_deadline ?deadline_ms ?shed built
