(* Flat arc arena: arc i and arc (i lxor 1) are residual twins. Dynamic
   arrays grow by doubling.

   Adjacency is a *frozen CSR view*: contiguous [first_out]/[arc_of]
   vectors built by one counting sort over the arena. Solvers freeze the
   graph at entry and then walk adjacency as a dense index range — the hot
   loops become sequential array reads. The CSR vectors are unboxed
   Bigarray buffers owned by the graph and re-sorted in place, so a
   re-freeze allocates nothing once they fit. Adding an arc invalidates
   the view; flow updates keep it. *)

type t = {
  n : int;
  mutable m : int;            (* arcs stored, twins included *)
  mutable dst_ : int array;
  mutable cap_ : int array;
  mutable cost_ : int array;
  mutable flow_ : int array;
  mutable src_ : int array;
  mutable csr_m : int;        (* arc count the CSR view was built at; -1 = never *)
  mutable csr_first : Ia.t;   (* n+1 prefix offsets into csr_arcs *)
  mutable csr_arcs : Ia.t;    (* arc ids grouped by source vertex *)
  mutable csr_cursor : Ia.t;  (* counting-sort scratch, reused per freeze *)
}

let c_freezes = Obs.counter "graph.freezes"

let create ?(arc_hint = 16) n =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  let cap = max 2 (2 * arc_hint) in
  {
    n;
    m = 0;
    dst_ = Array.make cap 0;
    cap_ = Array.make cap 0;
    cost_ = Array.make cap 0;
    flow_ = Array.make cap 0;
    src_ = Array.make cap 0;
    csr_m = -1;
    csr_first = Ia.empty;
    csr_arcs = Ia.empty;
    csr_cursor = Ia.empty;
  }

let n_vertices g = g.n
let n_arcs g = g.m

let grow g =
  let old = Array.length g.dst_ in
  let nw = 2 * old in
  let extend a fill =
    let b = Array.make nw fill in
    Array.blit a 0 b 0 old;
    b
  in
  g.dst_ <- extend g.dst_ 0;
  g.cap_ <- extend g.cap_ 0;
  g.cost_ <- extend g.cost_ 0;
  g.flow_ <- extend g.flow_ 0;
  g.src_ <- extend g.src_ 0

let push_raw g ~src ~dst ~cap ~cost =
  if g.m >= Array.length g.dst_ then grow g;
  let id = g.m in
  g.dst_.(id) <- dst;
  g.cap_.(id) <- cap;
  g.cost_.(id) <- cost;
  g.flow_.(id) <- 0;
  g.src_.(id) <- src;
  g.m <- id + 1;
  g.csr_m <- -1;
  id

let add_arc g ~src ~dst ~cap ~cost =
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Graph.add_arc: vertex out of range";
  let id = push_raw g ~src ~dst ~cap ~cost in
  let _twin = push_raw g ~src:dst ~dst:src ~cap:0 ~cost:(-cost) in
  id

let frozen g = g.csr_m = g.m

let freeze g =
  if not (frozen g) then begin
    Obs.incr c_freezes;
    let n = g.n and m = g.m in
    g.csr_first <- Ia.ensure g.csr_first (n + 1) ~fill:0;
    g.csr_cursor <- Ia.ensure g.csr_cursor (n + 1) ~fill:0;
    g.csr_arcs <- Ia.ensure g.csr_arcs (max 1 m) ~fill:0;
    let first = g.csr_first and cursor = g.csr_cursor and arcs = g.csr_arcs in
    Ia.fill_range first 0 (n + 1) 0;
    for a = 0 to m - 1 do
      let s = g.src_.(a) in
      first.{s + 1} <- first.{s + 1} + 1
    done;
    for v = 1 to n do
      first.{v} <- first.{v} + first.{v - 1}
    done;
    (* second pass fills each vertex's slice in insertion (arc-id) order *)
    Ia.blit first 0 cursor 0 (n + 1);
    for a = 0 to m - 1 do
      let s = g.src_.(a) in
      arcs.{cursor.{s}} <- a;
      cursor.{s} <- cursor.{s} + 1
    done;
    g.csr_m <- m
  end

let first_out g =
  if not (frozen g) then invalid_arg "Graph.first_out: graph not frozen";
  g.csr_first

let arc_of g =
  if not (frozen g) then invalid_arg "Graph.arc_of: graph not frozen";
  g.csr_arcs

let check_arc g a =
  if a < 0 || a >= g.m then invalid_arg "Graph: arc id out of range"

let src g a = check_arc g a; g.src_.(a)
let dst g a = check_arc g a; g.dst_.(a)
let capacity g a = check_arc g a; g.cap_.(a)
let cost g a = check_arc g a; g.cost_.(a)
let flow g a = check_arc g a; g.flow_.(a)
let residual g a = check_arc g a; g.cap_.(a) - g.flow_.(a)
let rev a = a lxor 1
let is_forward a = a land 1 = 0

let push g a d =
  check_arc g a;
  if d > g.cap_.(a) - g.flow_.(a) then
    invalid_arg "Graph.push: exceeds residual capacity";
  g.flow_.(a) <- g.flow_.(a) + d;
  g.flow_.(rev a) <- g.flow_.(rev a) - d

let reset_flows g = Array.fill g.flow_ 0 g.m 0

let iter_out g v f =
  freeze g;
  let first = g.csr_first and arcs = g.csr_arcs in
  for i = first.{v} to first.{v + 1} - 1 do
    f arcs.{i}
  done

let fold_out g v f init =
  let acc = ref init in
  iter_out g v (fun a -> acc := f !acc a);
  !acc

let out_degree g v = fold_out g v (fun n _ -> n + 1) 0

let outflow g v =
  fold_out g v (fun acc a -> if is_forward a then acc + g.flow_.(a) else acc - g.flow_.(rev a)) 0

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %d vertices, %d arcs (%s)" g.n (g.m / 2)
    (if frozen g then "frozen" else "dirty");
  for a = 0 to g.m - 1 do
    if is_forward a then
      Format.fprintf ppf "@,%d -> %d  cap=%d cost=%d flow=%d" g.src_.(a)
        g.dst_.(a) g.cap_.(a) g.cost_.(a) g.flow_.(a)
  done;
  Format.fprintf ppf "@]"
