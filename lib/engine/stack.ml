(* One declarative stack spec shared by every driver. [build] mirrors the
   hand assembly the bench/fault_smoke/serve drivers used to do inline —
   the differential suite (test_engine) pins the equivalence down to
   placement fingerprints, so any change here must stay bit-compatible
   with the constructions it replaced. *)

type kind =
  | Aladdin
  | Cells
  | Firmament
  | Medea
  | Gokube
  | Ladder

type dijkstra = Auto | Heap | Dial

type serve = { serve_cfg : Serve.Runner.config; serve_machines : int }

type spec = {
  kind : kind;
  il : bool;
  dl : bool;
  weight_base : int option;
  cost_model : Cost_model.t;
  reschd : int;
  medea_a : float;
  medea_b : float;
  medea_c : float;
  solver : string option;
  dijkstra : dijkstra option;
  cells : int option;
  cells_mode : Cells.Coordinator.mode option;
  supervise : Cells.Supervisor.config option;
  deadline_ms : float;
  ladder_rungs : string list option;
  audit : bool;
  serve : serve option;
}

let default =
  {
    kind = Aladdin;
    il = true;
    dl = true;
    weight_base = None;
    cost_model = Firmament.default.Firmament.cost_model;
    reschd = Firmament.default.Firmament.reschd;
    medea_a = Medea.default.Medea.weights.Medea.a;
    medea_b = Medea.default.Medea.weights.Medea.b;
    medea_c = Medea.default.Medea.weights.Medea.c;
    solver = None;
    dijkstra = None;
    cells = None;
    cells_mode = None;
    supervise = None;
    deadline_ms = 0.;
    ladder_rungs = None;
    audit = false;
    serve = None;
  }

let label spec =
  match spec.kind with
  | Aladdin ->
      if spec.il && not spec.dl then "aladdin-il"
      else if (not spec.il) && not spec.dl then "aladdin-plain"
      else "aladdin"
  | Cells -> (
      match spec.cells with
      | Some n -> Printf.sprintf "cells(%d)" n
      | None -> "cells")
  | Firmament ->
      "firmament-" ^ String.lowercase_ascii (Cost_model.name spec.cost_model)
  | Medea -> "medea"
  | Gokube -> "gokube"
  | Ladder -> "ladder"

let known_names =
  [
    "aladdin";
    "aladdin-plain";
    "aladdin-il";
    "cells";
    "firmament";
    "firmament-trivial";
    "firmament-quincy";
    "firmament-octopus";
    "medea";
    "gokube";
    "ladder";
  ]

let of_name ?(base = default) s =
  match String.lowercase_ascii (String.trim s) with
  | "aladdin" -> Ok { base with kind = Aladdin; il = true; dl = true }
  | "aladdin-plain" -> Ok { base with kind = Aladdin; il = false; dl = false }
  | "aladdin-il" -> Ok { base with kind = Aladdin; il = true; dl = false }
  | "cells" -> Ok { base with kind = Cells }
  | "firmament" -> Ok { base with kind = Firmament }
  | "firmament-trivial" ->
      Ok { base with kind = Firmament; cost_model = Cost_model.Trivial }
  | "firmament-quincy" ->
      Ok { base with kind = Firmament; cost_model = Cost_model.Quincy }
  | "firmament-octopus" ->
      Ok { base with kind = Firmament; cost_model = Cost_model.Octopus }
  | "medea" -> Ok { base with kind = Medea }
  | "gokube" | "go-kube" -> Ok { base with kind = Gokube }
  | "ladder" -> Ok { base with kind = Ladder }
  | name -> (
      (* a registry backend name runs a Firmament stack pinned to that
         solver, exactly as Ladder.rung / the serving phase always did *)
      match Flownet.Registry.find name with
      | Some _ -> Ok { base with kind = Firmament; solver = Some name }
      | None ->
          Error
            (Printf.sprintf "unknown scheduler %S (known: %s)" s
               (String.concat ", "
                  (known_names @ Flownet.Registry.names ()))))

let dijkstra_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" -> Some Heap
  | "dial" -> Some Dial
  | "auto" -> Some Auto
  | _ -> None

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "domains" -> Some `Domains
  | "sequential" | "seq" -> Some `Sequential
  | "auto" -> Some `Auto
  | _ -> None

let of_env ?(base = default) () =
  let spec = base in
  let spec =
    if Env.set "ALADDIN_SOLVER" then
      { spec with solver = Some (Flownet.Registry.env_name ()) }
    else spec
  in
  let spec =
    match Env.string_opt "ALADDIN_DIJKSTRA" with
    | Some s -> { spec with dijkstra = dijkstra_of_string s }
    | None -> spec
  in
  let spec =
    if Env.set "ALADDIN_CELLS" then
      { spec with cells = Some (Cells.Partition.default_cells ()) }
    else spec
  in
  let spec =
    if Env.set "ALADDIN_CELLS_MODE" then
      { spec with cells_mode = Some (Cells.Coordinator.mode_of_env ()) }
    else spec
  in
  let spec =
    (* ALADDIN_SUPERVISE turns supervision on; any sub-knob implies it *)
    if
      List.exists Env.set
        [
          "ALADDIN_SUPERVISE"; "ALADDIN_SUPERVISE_RETRIES";
          "ALADDIN_SUPERVISE_BACKOFF_MS"; "ALADDIN_SUPERVISE_JITTER";
          "ALADDIN_SUPERVISE_THRESHOLD"; "ALADDIN_SUPERVISE_COOLDOWN";
          "ALADDIN_SUPERVISE_TIMEOUT_MS"; "ALADDIN_SUPERVISE_EWMA";
          "ALADDIN_SUPERVISE_SEED";
        ]
    then { spec with supervise = Some (Cells.Supervisor.config_of_env ()) }
    else spec
  in
  let spec =
    match Env.float_opt "ALADDIN_DEADLINE_MS" with
    | Some d ->
        (* the bench always ran deadline-bounded stacks under the
           auditor; keep that coupling declarative *)
        { spec with deadline_ms = d; audit = spec.audit || d > 0. }
    | None -> spec
  in
  let spec =
    if Env.set "ALADDIN_LADDER" then
      { spec with ladder_rungs = Some (Flownet.Registry.rungs_of_env ()) }
    else spec
  in
  spec

let serve_env_serve () =
  {
    serve_cfg = Serve.Runner.config_of_env ();
    serve_machines = Env.int "ALADDIN_SERVE_MACHINES" 500;
  }

let rung_names = lazy (Flownet.Registry.names () @ [ "gokube" ])

let of_args ?(base = default) args =
  let ( let* ) = Result.bind in
  let int_arg flag v k =
    match int_of_string_opt v with
    | Some n -> k n
    | None -> Error (Printf.sprintf "%s: not an integer: %S" flag v)
  in
  let float_arg flag v k =
    match float_of_string_opt v with
    | Some f -> k f
    | None -> Error (Printf.sprintf "%s: not a number: %S" flag v)
  in
  let with_serve spec f =
    let sv =
      match spec.serve with Some sv -> sv | None -> serve_env_serve ()
    in
    { spec with serve = Some (f sv) }
  in
  let with_supervise spec f =
    let sc =
      match spec.supervise with
      | Some sc -> sc
      | None -> Cells.Supervisor.config_of_env ()
    in
    { spec with supervise = Some (f sc) }
  in
  let rec go spec = function
    | [] -> Ok spec
    | "--sched" :: v :: rest ->
        let* spec = of_name ~base:spec v in
        go spec rest
    | "--solver" :: v :: rest -> (
        match Flownet.Registry.find v with
        | Some _ -> go { spec with solver = Some v } rest
        | None ->
            Error
              (Printf.sprintf "--solver: unknown backend %S (known: %s)" v
                 (String.concat ", " (Flownet.Registry.names ()))))
    | "--dijkstra" :: v :: rest -> (
        match dijkstra_of_string v with
        | Some p -> go { spec with dijkstra = Some p } rest
        | None ->
            Error
              (Printf.sprintf "--dijkstra: %S (expected auto|heap|dial)" v))
    | "--cells" :: v :: rest ->
        int_arg "--cells" v (fun n ->
            if n < 1 then Error "--cells: must be >= 1"
            else go { spec with cells = Some n } rest)
    | "--cells-mode" :: v :: rest -> (
        match mode_of_string v with
        | Some m -> go { spec with cells_mode = Some m } rest
        | None ->
            Error
              (Printf.sprintf
                 "--cells-mode: %S (expected auto|domains|sequential)" v))
    | "--deadline-ms" :: v :: rest ->
        float_arg "--deadline-ms" v (fun d ->
            go { spec with deadline_ms = d; audit = spec.audit || d > 0. } rest)
    | "--ladder" :: v :: rest ->
        let rungs = String.split_on_char ',' v |> List.map String.trim in
        let unknown =
          List.filter (fun r -> not (List.mem r (Lazy.force rung_names))) rungs
        in
        if unknown <> [] then
          Error
            (Printf.sprintf "--ladder: unknown rung(s) %s (known: %s)"
               (String.concat ", " unknown)
               (String.concat ", " (Lazy.force rung_names)))
        else go { spec with ladder_rungs = Some rungs } rest
    | "--audit" :: rest -> go { spec with audit = true } rest
    | "--no-audit" :: rest -> go { spec with audit = false } rest
    | "--serve" :: rest -> go (with_serve spec Fun.id) rest
    | "--serve-machines" :: v :: rest ->
        int_arg "--serve-machines" v (fun n ->
            go (with_serve spec (fun sv -> { sv with serve_machines = n })) rest)
    | "--supervise" :: rest -> go (with_supervise spec Fun.id) rest
    | "--supervise-retries" :: v :: rest ->
        int_arg "--supervise-retries" v (fun n ->
            if n < 0 then Error "--supervise-retries: must be >= 0"
            else
              go
                (with_supervise spec (fun sc ->
                     { sc with Cells.Supervisor.max_retries = n }))
                rest)
    | "--supervise-threshold" :: v :: rest ->
        int_arg "--supervise-threshold" v (fun n ->
            if n < 1 then Error "--supervise-threshold: must be >= 1"
            else
              go
                (with_supervise spec (fun sc ->
                     { sc with Cells.Supervisor.failure_threshold = n }))
                rest)
    | "--supervise-cooldown" :: v :: rest ->
        int_arg "--supervise-cooldown" v (fun n ->
            if n < 1 then Error "--supervise-cooldown: must be >= 1"
            else
              go
                (with_supervise spec (fun sc ->
                     { sc with Cells.Supervisor.cooldown = n }))
                rest)
    | "--supervise-timeout-ms" :: v :: rest ->
        float_arg "--supervise-timeout-ms" v (fun d ->
            go
              (with_supervise spec (fun sc ->
                   { sc with Cells.Supervisor.join_timeout_ms = Float.max 0. d }))
              rest)
    | "--supervise-backoff-ms" :: v :: rest ->
        float_arg "--supervise-backoff-ms" v (fun d ->
            go
              (with_supervise spec (fun sc ->
                   { sc with Cells.Supervisor.backoff_ms = Float.max 0. d }))
              rest)
    | [ flag ]
      when List.mem flag
             [
               "--sched"; "--solver"; "--dijkstra"; "--cells"; "--cells-mode";
               "--deadline-ms"; "--ladder";
               "--serve-machines"; "--supervise-retries";
               "--supervise-threshold"; "--supervise-cooldown";
               "--supervise-timeout-ms"; "--supervise-backoff-ms";
             ] ->
        Error (flag ^ " requires a value")
    | arg :: _ -> Error (Printf.sprintf "unknown stack argument %S" arg)
  in
  go base args

type built = {
  spec : spec;
  scheduler : Scheduler.t;
  epoch : Obs.epoch;
  shutdown : unit -> unit;
  breakdown : unit -> Cells.Coordinator.breakdown option;
}

let noop () = ()
let no_breakdown () = None

let aladdin_options spec =
  {
    Aladdin.Aladdin_scheduler.default_options with
    il = spec.il;
    dl = spec.dl;
    weight_base = spec.weight_base;
  }

let build spec =
  (match spec.dijkstra with
  | Some Auto -> Flownet.Dijkstra.set_queue_policy Flownet.Dijkstra.Auto
  | Some Heap -> Flownet.Dijkstra.set_queue_policy Flownet.Dijkstra.Force_heap
  | Some Dial -> Flownet.Dijkstra.set_queue_policy Flownet.Dijkstra.Force_dial
  | None -> ());
  let base, shutdown, breakdown =
    match spec.kind with
    | Aladdin ->
        ( Aladdin.Aladdin_scheduler.make ~options:(aladdin_options spec) (),
          noop,
          no_breakdown )
    | Cells ->
        let comp =
          Aladdin.Cells_scheduler.create ?cells:spec.cells
            ?mode:spec.cells_mode ?supervise:spec.supervise ()
        in
        ( Aladdin.Cells_scheduler.scheduler comp,
          (fun () -> Aladdin.Cells_scheduler.shutdown comp),
          fun () -> Aladdin.Cells_scheduler.last_breakdown comp )
    | Firmament ->
        let solver =
          match spec.solver with
          | Some s -> s
          | None -> Firmament.default.Firmament.solver
        in
        ( Firmament.make
            ~config:
              {
                Firmament.default with
                cost_model = spec.cost_model;
                reschd = spec.reschd;
                solver;
              }
            (),
          noop,
          no_breakdown )
    | Medea ->
        ( Medea.make
            ~config:
              {
                Medea.default with
                weights =
                  { Medea.a = spec.medea_a; b = spec.medea_b; c = spec.medea_c };
              }
            (),
          noop,
          no_breakdown )
    | Gokube -> (Gokube.make (), noop, no_breakdown)
    | Ladder ->
        ( Ladder.make
            ?deadline_ms:
              (if spec.deadline_ms > 0. then Some spec.deadline_ms else None)
            ?rungs:spec.ladder_rungs (),
          noop,
          no_breakdown )
  in
  let sched =
    if spec.deadline_ms > 0. && spec.kind <> Ladder then
      Ladder.make ~deadline_ms:spec.deadline_ms ?rungs:spec.ladder_rungs
        ~first:(label spec, base) ()
    else base
  in
  let sched =
    if spec.audit then
      Audit.wrap
        ~place:(fun cl c -> Aladdin.Migration.repair_placement cl c)
        sched
    else sched
  in
  { spec; scheduler = sched; epoch = Obs.epoch (); shutdown; breakdown }

let run_counters b = Obs.counters_since b.epoch

let serve_sweep spec ~workload =
  match spec.serve with
  | None -> invalid_arg "Stack.serve_sweep: spec carries no serve config"
  | Some sv ->
      let make_cluster () =
        Cluster.create
          (Workload.topology workload ~n_machines:sv.serve_machines)
          ~constraints:(Workload.constraint_set workload)
      in
      let builds = ref [] in
      let make_sched () =
        let b = build spec in
        builds := b :: !builds;
        b.scheduler
      in
      let r =
        Serve.Runner.sweep sv.serve_cfg ~make_sched ~make_cluster ~workload
      in
      List.iter (fun b -> b.shutdown ()) !builds;
      r
