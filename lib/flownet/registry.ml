(* Name -> solver backend registry. Backends register as first-class
   modules; [register] wraps each one with per-backend obs series
   (solver.<name>.solves / .errors / .solve_ns) so every call site gets
   instrumentation without the backends knowing about it. *)

let flow_cost g =
  let c = ref 0 in
  for a = 0 to Graph.n_arcs g - 1 do
    if Graph.is_forward a then c := !c + (Graph.cost g a * Graph.flow g a)
  done;
  !c

let instrument (module M : Solver_intf.S) : (module Solver_intf.S) =
  let c_solves = Obs.counter (Printf.sprintf "solver.%s.solves" M.name) in
  let c_errors = Obs.counter (Printf.sprintf "solver.%s.errors" M.name) in
  let h_solve = Obs.histogram (Printf.sprintf "solver.%s.solve_ns" M.name) in
  (module struct
    let name = M.name
    let caps = M.caps

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

let table : (string, (module Solver_intf.S)) Hashtbl.t = Hashtbl.create 8

let register ((module M : Solver_intf.S) as m) =
  Hashtbl.replace table M.name (instrument m)

let find name = Hashtbl.find_opt table name

let names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let name (module M : Solver_intf.S) = M.name
let caps (module M : Solver_intf.S) = M.caps

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

(* ---- degradation ladder rungs (run by Baselines.Ladder) ---- *)

(* Min-cost backends only: a max-flow rung ignores costs, routes the flow
   through Firmament's unscheduled node and places nothing, and the ladder
   accepts it because it returns. *)
let default_rungs = [ "mincost"; "cost-scaling" ]

let rungs_of_env () =
  match Sys.getenv_opt "ALADDIN_LADDER" with
  | Some s when String.trim s <> "" ->
      let rungs =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun r -> r <> "")
      in
      List.iter
        (fun r ->
          if r <> "gokube" && find r = None then
            invalid_arg
              (Printf.sprintf "ALADDIN_LADDER: unknown rung %s (known: %s)" r
                 (String.concat ", " (names () @ [ "gokube" ]))))
        rungs;
      if rungs = [] then default_rungs else rungs
  | _ -> default_rungs

(* ---- built-in backends ---- *)

module Mincost_backend = struct
  let name = "mincost"

  let caps =
    { Solver_intf.min_cost = true; supports_max_flow = true }

  let solve ?deadline ?max_flow g ~src ~dst =
    Mincost.run ?deadline ?max_flow g ~src ~dst
end

module Cost_scaling_backend = struct
  let name = "cost-scaling"

  let caps =
    { Solver_intf.min_cost = true; supports_max_flow = true }

  let solve ?deadline ?max_flow g ~src ~dst =
    Ok (Cost_scaling.run ?deadline ?max_flow g ~src ~dst)
end

module Dinic_backend = struct
  let name = "dinic"

  let caps =
    { Solver_intf.min_cost = false; supports_max_flow = true }

  let solve ?deadline ?max_flow g ~src ~dst =
    let flow = Dinic.run ?deadline ?max_flow g ~src ~dst in
    Ok { Mincost.flow; cost = flow_cost g; iterations = 0 }
end

module Push_relabel_backend = struct
  let name = "push-relabel"

  let caps =
    { Solver_intf.min_cost = false; supports_max_flow = false }

  let solve ?deadline ?max_flow:_ g ~src ~dst =
    let flow = Push_relabel.run ?deadline g ~src ~dst in
    Ok { Mincost.flow; cost = flow_cost g; iterations = 0 }
end

let () =
  register (module Mincost_backend);
  register (module Cost_scaling_backend);
  register (module Dinic_backend);
  register (module Push_relabel_backend)
