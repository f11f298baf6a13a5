type result = { dist : Ia.t; parent : Ia.t }

(* Reusable scratch space: unboxed label vectors sized to the largest graph
   seen, reset between runs by undoing only the previous run's footprint —
   so a run costs O(explored region), not O(vertices), in both time and
   allocation (zero words once the vectors fit). *)
type workspace = {
  mutable dist : Ia.t;
  mutable parent : Ia.t;
  mutable settled : Ia.t;      (* 0/1 *)
  heap : Heap.t;
  mutable touched : Ia.t;
  mutable n_touched : int;
}

let workspace () =
  {
    dist = Ia.empty;
    parent = Ia.empty;
    settled = Ia.empty;
    heap = Heap.create ~capacity:64 ();
    touched = Ia.empty;
    n_touched = 0;
  }

let touch ws v =
  if ws.n_touched = Ia.length ws.touched then
    ws.touched <- Ia.ensure ws.touched (max 64 (2 * ws.n_touched)) ~fill:0;
  ws.touched.{ws.n_touched} <- v;
  ws.n_touched <- ws.n_touched + 1

let prepare ws n =
  if Ia.length ws.dist < n then begin
    ws.dist <- Ia.create ~fill:max_int n;
    ws.parent <- Ia.create ~fill:(-1) n;
    ws.settled <- Ia.create ~fill:0 n;
    ws.n_touched <- 0
  end
  else begin
    for i = 0 to ws.n_touched - 1 do
      let v = ws.touched.{i} in
      ws.dist.{v} <- max_int;
      ws.parent.{v} <- -1;
      ws.settled.{v} <- 0
    done;
    ws.n_touched <- 0
  end;
  Heap.clear ws.heap

(* The core search. Returns the settled distance of [stop_at] (max_int when
   it never settled); labels live in the workspace vectors. *)
let run_ws ws ?(stop_at = -1) ?deadline g ~src ~(potential : Ia.t) =
  let dl = Deadline.resolve deadline in
  let n = Graph.n_vertices g in
  Graph.freeze g;
  let first = Graph.first_out g and arcs = Graph.arc_of g in
  prepare ws n;
  let dist = ws.dist and parent = ws.parent and settled = ws.settled in
  let heap = ws.heap in
  dist.{src} <- 0;
  touch ws src;
  Heap.push heap ~key:0 ~value:src;
  let d_stop = ref max_int in
  let continue = ref true in
  while !continue do
    Deadline.tick_opt dl "dijkstra.pop";
    if not (Heap.pop heap) then continue := false
    else begin
      let d = Heap.last_key heap and u = Heap.last_value heap in
      if settled.{u} = 0 && d = dist.{u} then begin
        settled.{u} <- 1;
        if u = stop_at then begin
          d_stop := d;
          continue := false
        end
        else
          for i = first.{u} to first.{u + 1} - 1 do
            let a = arcs.{i} in
            if Graph.residual g a > 0 then begin
              let v = Graph.dst g a in
              if settled.{v} = 0 then begin
                let rc =
                  Inf.add (Inf.add (Graph.cost g a) potential.{u})
                    (-potential.{v})
                in
                if rc < 0 then
                  invalid_arg "Dijkstra.run: negative reduced cost";
                let nd = Inf.add d rc in
                if nd < dist.{v} then begin
                  if dist.{v} = max_int then touch ws v;
                  dist.{v} <- nd;
                  parent.{v} <- a;
                  Heap.push heap ~key:nd ~value:v
                end
              end
            end
          done
      end
    end
  done;
  !d_stop

(* Fold the run's distances into [potential], capped at [d_dst] and
   uniformly shifted by [-d_dst] so only the vertices settled below the
   target move: pot(v) += dist(v) - d_dst. Reduced costs are invariant
   under the uniform shift, so this equals the classic LEMON-style
   pot(v) += min(dist(v), d_dst) update while touching O(settled region)
   entries instead of O(vertices). Tentative (unsettled) labels are >= the
   settled d_dst by the heap invariant, so their cap contribution is the
   uniform shift exactly. *)
let relax_potentials ws ~(potential : Ia.t) ~d_dst =
  for i = 0 to ws.n_touched - 1 do
    let v = ws.touched.{i} in
    let dv = ws.dist.{v} in
    if dv < d_dst then potential.{v} <- Inf.add potential.{v} (dv - d_dst)
  done

let run ?ws ?(stop_at = -1) ?deadline g ~src ~potential =
  let ws = match ws with Some w -> w | None -> workspace () in
  let (_ : int) = run_ws ws ~stop_at ?deadline g ~src ~potential in
  { dist = ws.dist; parent = ws.parent }
