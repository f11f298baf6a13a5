(* Rack-aligned cell partition: cell c owns the contiguous global machine
   range [bounds.(c), bounds.(c+1)). Racks are split into n_cells chunks
   whose sizes differ by at most one rack, so cells line up with the
   topology's rack tiers and a cell's machines are a Topology.slice. *)

type t = {
  topology : Topology.t;
  n_cells : int;
  bounds : int array; (* length n_cells + 1; bounds.(0) = 0 *)
  cell_of_rack : int array;
}

let make topology ~n_cells =
  let n_racks = Topology.n_racks topology in
  let n_mach = Topology.n_machines topology in
  let mpr = Topology.machines_per_rack topology in
  let n_cells = max 1 (min n_cells n_racks) in
  let bounds = Array.make (n_cells + 1) 0 in
  for c = 1 to n_cells - 1 do
    (* rack boundary floor(c * n_racks / n_cells): strictly increasing
       because n_cells <= n_racks, so every cell owns >= 1 rack *)
    bounds.(c) <- min n_mach (c * n_racks / n_cells * mpr)
  done;
  bounds.(n_cells) <- n_mach;
  let cell_of_rack = Array.make n_racks 0 in
  let c = ref 0 in
  for r = 0 to n_racks - 1 do
    let first = r * mpr in
    while first >= bounds.(!c + 1) do incr c done;
    cell_of_rack.(r) <- !c
  done;
  { topology; n_cells; bounds; cell_of_rack }

let n_cells t = t.n_cells
let topology t = t.topology
let bounds t c = (t.bounds.(c), t.bounds.(c + 1))
let n_machines_of t c = t.bounds.(c + 1) - t.bounds.(c)

let cell_of_machine t mid =
  t.cell_of_rack.(Topology.rack_of t.topology mid)

let sub_topology t c =
  Topology.slice t.topology ~first_machine:t.bounds.(c)
    ~n_machines:(n_machines_of t c)

(* Quarantine re-slicing: every cell with [live.(c) = false] hands its
   machine range to the nearest live neighbour (left preferred, right for
   a dead prefix) and keeps a zero-width range at its block's start. The
   redistribution invariants:

   - ownership blocks are contiguous in cell order (a dead run between
     two live cells all merges left), so a prefix sum of owned sizes
     reproduces each live cell's range as the exact union of the original
     rack-aligned ranges it absorbed — bounds stay rack-aligned and the
     total still covers every machine exactly once;
   - cell indices are stable: cell [c] of the resliced partition is the
     same logical cell (same scheduler, same health record), just with a
     larger, smaller, or empty machine range;
   - [cell_of_machine] never returns a dead cell (its range is empty).

   Reinstatement is just reslicing again with the cell live — or using
   the original partition when everything is. *)
let reslice t ~live =
  let n = t.n_cells in
  if Array.length live <> n then
    invalid_arg "Partition.reslice: live array length <> n_cells";
  if not (Array.exists Fun.id live) then
    invalid_arg "Partition.reslice: every cell is quarantined";
  if Array.for_all Fun.id live then t
  else begin
    let owner = Array.init n (fun i -> i) in
    for i = 0 to n - 1 do
      if not live.(i) then begin
        let o = ref (-1) in
        (try
           for j = i - 1 downto 0 do
             if live.(j) then begin
               o := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !o < 0 then
          (try
             for j = i + 1 to n - 1 do
               if live.(j) then begin
                 o := j;
                 raise Exit
               end
             done
           with Exit -> ());
        owner.(i) <- !o
      end
    done;
    let size = Array.make n 0 in
    for i = 0 to n - 1 do
      size.(owner.(i)) <- size.(owner.(i)) + (t.bounds.(i + 1) - t.bounds.(i))
    done;
    let bounds = Array.make (n + 1) 0 in
    for c = 0 to n - 1 do
      bounds.(c + 1) <- bounds.(c) + size.(c)
    done;
    let n_racks = Topology.n_racks t.topology in
    let mpr = Topology.machines_per_rack t.topology in
    let cell_of_rack = Array.make n_racks 0 in
    let c = ref 0 in
    for r = 0 to n_racks - 1 do
      let first = r * mpr in
      (* zero-width (dead) ranges satisfy [first >= bounds.(c+1)] and are
         skipped over, so racks only ever map to live cells *)
      while first >= bounds.(!c + 1) do incr c done;
      cell_of_rack.(r) <- !c
    done;
    { t with bounds; cell_of_rack }
  end

(* ALADDIN_CELLS is a comma-separated list of cell counts; a scheduler
   uses the last (most sharded) entry. Unset or unparsable entries are
   ignored. *)
let cells_of_env () =
  match Sys.getenv_opt "ALADDIN_CELLS" with
  | None -> None
  | Some s ->
      let ns =
        String.split_on_char ',' s
        |> List.filter_map (fun tok ->
               match int_of_string_opt (String.trim tok) with
               | Some n when n >= 1 -> Some n
               | _ -> None)
      in
      if ns = [] then None else Some ns

let default_cells () =
  match cells_of_env () with
  | None -> 1
  | Some ns -> List.nth ns (List.length ns - 1)
