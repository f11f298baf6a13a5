(* Name -> solver backend registry. Backends are first-class modules;
   [instrument] wraps each one with per-backend obs series
   (solver.<name>.solves / .errors / .solve_ns) so every call site gets
   instrumentation without the backends knowing about it. *)

let instrument (module M : Solver_intf.S) : (module Solver_intf.S) =
  let c_solves = Obs.counter (Printf.sprintf "solver.%s.solves" M.name) in
  let c_errors = Obs.counter (Printf.sprintf "solver.%s.errors" M.name) in
  let h_solve = Obs.histogram (Printf.sprintf "solver.%s.solve_ns" M.name) in
  (module struct
    let name = M.name

    let solve ?deadline ?max_flow g ~src ~dst =
      Obs.incr c_solves;
      let t0 = Obs.now_ns () in
      let r =
        (* Backends whose inner algorithm raises on budget exhaustion get
           the exception converted to the typed error here — but only for
           the deadline this call received explicitly. An ambient deadline
           (armed by scheduler middleware) keeps propagating as the
           exception so the middleware can escalate. *)
        match M.solve ?deadline ?max_flow g ~src ~dst with
        | r -> r
        | exception Deadline.Expired { site; deadline = d }
          when (match deadline with Some d' -> d' == d | None -> false) ->
            Error (Error.Deadline_exceeded site)
      in
      Obs.observe_ns h_solve (Int64.sub (Obs.now_ns ()) t0);
      (match r with Error _ -> Obs.incr c_errors | Ok _ -> ());
      r
  end)

(* ---- built-in backends ---- *)

module Mincost_backend = struct
  let name = "mincost"

  let solve ?deadline ?max_flow g ~src ~dst =
    Mincost.run ?deadline ?max_flow g ~src ~dst
end

module Cost_scaling_backend = struct
  let name = "cost-scaling"

  let solve ?deadline ?max_flow g ~src ~dst =
    Ok (Cost_scaling.run ?deadline ?max_flow g ~src ~dst)
end

let backends : (module Solver_intf.S) list =
  List.map instrument [ (module Mincost_backend); (module Cost_scaling_backend) ]

let find name =
  List.find_opt (fun (module M : Solver_intf.S) -> M.name = name) backends

let names () =
  List.sort compare (List.map (fun (module M : Solver_intf.S) -> M.name) backends)

let name (module M : Solver_intf.S) = M.name

let solve (module M : Solver_intf.S) ?deadline ?max_flow g ~src ~dst =
  M.solve ?deadline ?max_flow g ~src ~dst

let default = "mincost"

let env_name () =
  match Sys.getenv_opt "ALADDIN_SOLVER" with
  | Some s when String.trim s <> "" -> String.trim s
  | _ -> default

let of_env () =
  let requested = env_name () in
  match find requested with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "ALADDIN_SOLVER=%s: unknown solver (known: %s)"
           requested
           (String.concat ", " (names ())))
