(* Rung names and construction for the degradation ladder. Flow-solver
   names become a Firmament stack pinned to that backend (the cheap greedy
   extraction is shared; only the solve under it degrades), and "gokube" is
   the Go-Kube scorer — the terminal rung that touches no flow network at
   all, so it can never exhaust a solver budget. [rungs] is the one
   validator: ALADDIN_LADDER, Stack's --ladder and [make] all go through
   it. *)

let known_rungs () = Flownet.Registry.names () @ [ "gokube" ]

(* Exact first, then the capped approximation, then the solver-free
   terminal. *)
let default_rungs = [ "mincost"; "cost-scaling"; "gokube" ]

let rungs names =
  let names = List.map String.trim names |> List.filter (fun r -> r <> "") in
  let known = known_rungs () in
  match List.filter (fun r -> not (List.mem r known)) names with
  | [] -> Ok (if names = [] then default_rungs else names)
  | unknown ->
      Error
        (Printf.sprintf "unknown rung(s) %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " known))

let rungs_of_string s = rungs (String.split_on_char ',' s)

let rungs_of_env () =
  match Sys.getenv_opt "ALADDIN_LADDER" with
  | Some s when String.trim s <> "" -> (
      match rungs_of_string s with
      | Ok r -> Some r
      | Error e -> invalid_arg ("ALADDIN_LADDER: " ^ e))
  | _ -> None

let rung name =
  if name = "gokube" then Gokube.make ()
  else Firmament.make ~config:{ Firmament.default with solver = name } ()

let make ?deadline_ms ?shed ?rungs:names ?first () =
  let names =
    match names with
    | Some r -> (
        match rungs r with
        | Ok r -> r
        | Error e -> invalid_arg ("Ladder.make: " ^ e))
    | None -> Option.value (rungs_of_env ()) ~default:default_rungs
  in
  let built = List.map (fun n -> (n, rung n)) names in
  let built = match first with Some r -> r :: built | None -> built in
  Scheduler.with_deadline ?deadline_ms ?shed built
