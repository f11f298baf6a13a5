(* The Aladdin scheduler sharded over cells: each cell runs a private
   Aladdin stack on its mirror; phase-2 leftovers go through one bare
   Algorithm-1 run over the whole outer cluster. The
   coordinator output is wrapped in [cells.*] batch obs, mirroring the
   unsharded stack's [aladdin.*] series one level up. *)

type t = {
  coordinator : Cells.Coordinator.t;
  scheduler : Scheduler.t;
  n_cells : int;
}

let name ~cells options =
  Printf.sprintf "Cells(%d|%s)" cells
    (Aladdin_scheduler.name_of_options options)

let create ?(cells = 1) ?(mode = `Auto)
    ?(options = Aladdin_scheduler.default_options) ?(fixup = true) () =
  let make_cell ~cell:_ ~n_cells:_ = Aladdin_scheduler.make ~options () in
  let coordinator =
    Cells.Coordinator.create ~mode ~fixup
      ~fixup_run:(Aladdin_scheduler.schedule_raw options)
      ~recoverable:Aladdin_scheduler.recoverable ~n_cells:cells make_cell
  in
  let scheduler =
    Cells.Coordinator.scheduler coordinator ~name:(name ~cells options)
    |> Scheduler.with_obs ~prefix:"cells"
  in
  { coordinator; scheduler; n_cells = cells }

let scheduler t = t.scheduler
let n_cells t = t.n_cells
let shutdown t = Cells.Coordinator.shutdown t.coordinator
let last_breakdown t = Cells.Coordinator.last_breakdown t.coordinator

let make ?cells ?mode ?options ?fixup () =
  (create ?cells ?mode ?options ?fixup ()).scheduler
