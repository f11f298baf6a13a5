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
