(* Successive shortest paths in primal-dual (blocking-flow) form.

   Classic SSP runs one Dijkstra per augmenting path. Here each Dijkstra
   phase instead ends with a Dinic-style blocking flow over the subgraph of
   zero-reduced-cost residual arcs: after the potential update every arc on
   a shortest src→dst path has reduced cost exactly 0, so the blocking flow
   saturates *all* shortest paths of the current length at once and the
   next Dijkstra is only needed when the path cost strictly increases. On
   the scheduler projections — many machines sharing a price — this
   collapses dozens of per-path Dijkstras into a handful of phases.

   Every unit pushed in a phase travels a path of reduced cost 0, whose
   real cost telescopes to pot(dst) - pot(src); the phase's cost is that
   value times the units pushed, with no per-arc accumulation.

   All label vectors are unboxed {!Ia.t} buffers allocated once per
   solve, so the phase loop itself allocates nothing on the heap. *)

type stats = { flow : int; cost : int; iterations : int }

(* Per-solve scratch: the Dijkstra workspace, BFS hop levels over the
   rc-0 subgraph (-1 = unvisited at rest), the BFS queue ring, per-vertex
   CSR cursors for the DFS, and the solve's working potentials. *)
type scratch = {
  ws : Dijkstra.workspace;
  level : Ia.t;
  queue : Ia.t;
  cursor : Ia.t;
  pot : Ia.t;
}

let scratch n =
  {
    ws = Dijkstra.workspace ();
    level = Ia.create ~fill:(-1) n;
    queue = Ia.create n;
    cursor = Ia.create n;
    pot = Ia.create n;
  }

let c_paths = Obs.counter "mincost.augmenting_paths"
let c_dijkstra = Obs.counter "mincost.dijkstra_runs"
let c_phases = Obs.counter "mincost.blocking_phases"
let c_errors = Obs.counter "mincost.errors"

(* BFS levels over residual arcs with zero reduced cost. Fills [w.level]
   and [w.cursor] for the visited region, records it in [w.queue], and
   returns the number of vertices visited — or 0 when [dst] is
   unreachable in the rc-0 subgraph (levels already reset). *)
let rc0_levels w ~dl g first arcs ~src ~dst =
  let pot = w.pot and level = w.level and queue = w.queue in
  level.{src} <- 0;
  w.cursor.{src} <- first.{src};
  queue.{0} <- src;
  let qn = ref 1 in
  let qh = ref 0 in
  let dst_level = ref max_int in
  while !qh < !qn do
    Deadline.tick_opt dl "mincost.levels";
    let u = queue.{!qh} in
    incr qh;
    (* No path through a vertex at dst's level or deeper can reach dst
       strictly level-by-level, so stop expanding there. *)
    if level.{u} < !dst_level then
      for i = first.{u} to first.{u + 1} - 1 do
        let a = arcs.{i} in
        if Graph.residual g a > 0 then begin
          let v = Graph.dst g a in
          if
            level.{v} < 0
            && Inf.add (Inf.add (Graph.cost g a) pot.{u}) (-pot.{v}) = 0
          then begin
            level.{v} <- level.{u} + 1;
            w.cursor.{v} <- first.{v};
            queue.{!qn} <- v;
            incr qn;
            if v = dst then dst_level := level.{v}
          end
        end
      done
  done;
  if !dst_level = max_int then begin
    for i = 0 to !qn - 1 do
      level.{queue.{i}} <- -1
    done;
    0
  end
  else !qn

let reset_levels w visited =
  for i = 0 to visited - 1 do
    w.level.{w.queue.{i}} <- -1
  done

(* Dinic-style blocking flow over the level graph of the rc-0 subgraph:
   per-vertex CSR cursors guarantee each arc is abandoned at most once per
   phase. Recursion depth is the level of [dst]. *)
let blocking_flow w ~dl g first arcs ~src ~dst budget =
  let pot = w.pot and level = w.level and cursor = w.cursor in
  let rec dfs u budget =
    if u = dst then begin
      Obs.incr c_paths;
      budget
    end
    else begin
      let sent = ref 0 in
      let continue = ref true in
      while !continue do
        Deadline.tick_opt dl "mincost.blocking_flow";
        if cursor.{u} >= first.{u + 1} then continue := false
        else begin
          let a = arcs.{cursor.{u}} in
          let v = Graph.dst g a in
          let r = Graph.residual g a in
          if
            r > 0
            && level.{v} = level.{u} + 1
            && Inf.add (Inf.add (Graph.cost g a) pot.{u}) (-pot.{v}) = 0
          then begin
            let d = dfs v (min (budget - !sent) r) in
            if d > 0 then begin
              Graph.push g a d;
              sent := !sent + d;
              if !sent = budget then continue := false
            end
            else cursor.{u} <- cursor.{u} + 1
          end
          else cursor.{u} <- cursor.{u} + 1
        end
      done;
      !sent
    end
  in
  dfs src budget

let solve ~dl ~max_flow g ~src ~dst =
  let n = Graph.n_vertices g in
  Graph.freeze g;
  let first = Graph.first_out g and arcs = Graph.arc_of g in
  let w = scratch n in
  let pot = w.pot in
  let total_flow = ref 0 in
  let total_cost = ref 0 in
  let iterations = ref 0 in
  let continue = ref (max_flow > 0) in
  let error = ref None in
  (* Initial potentials via SPFA, valid with negative arc costs. *)
  (match Spfa.run ?deadline:dl g ~src with
  | Error e ->
      error := Some e;
      continue := false
  | Ok bootstrap ->
      Ia.blit bootstrap.Spfa.dist 0 pot 0 n;
      (* Unreachable vertices never sit on an augmenting path, so any
         finite potential works; use the largest finite distance. *)
      let dmax = ref 0 in
      for v = 0 to n - 1 do
        if pot.{v} <> max_int && pot.{v} > !dmax then dmax := pot.{v}
      done;
      for v = 0 to n - 1 do
        if pot.{v} = max_int then pot.{v} <- !dmax
      done;
      continue := !continue && bootstrap.Spfa.dist.{dst} <> max_int);
  while !continue && !total_flow < max_flow do
    Deadline.tick_opt dl "mincost.augment";
    (* Saturate every remaining shortest path of the current cost in one
       blocking phase; Dijkstra runs only when none is left. *)
    let visited = rc0_levels w ~dl g first arcs ~src ~dst in
    if visited > 0 then begin
      Obs.incr c_phases;
      incr iterations;
      let pushed = blocking_flow w ~dl g first arcs ~src ~dst (max_flow - !total_flow) in
      reset_levels w visited;
      if pushed = 0 then
        (* A reachable level graph always admits >= 1 unit; stop rather
           than spin if an invariant ever breaks. *)
        continue := false
      else begin
        total_flow := !total_flow + pushed;
        (* Every rc-0 path's real cost telescopes to pot(dst) - pot(src). *)
        total_cost := !total_cost + (pushed * (pot.{dst} - pot.{src}))
      end
    end
    else begin
      match
        Dijkstra.run_ws w.ws ~stop_at:dst ?deadline:dl g ~src ~potential:pot
      with
      | exception Invalid_argument msg ->
          (* Potentials turned out invalid mid-solve (a graph mutated
             under the solver). Surface it as a typed error rather than
             an exception. *)
          error := Some (Error.Invalid_potential msg);
          continue := false
      | d_dst ->
          Obs.incr c_dijkstra;
          if d_dst = max_int || d_dst <= 0 then
            (* Unreachable — or a zero-cost path the rc-0 BFS just said
               does not exist, which a sound graph cannot produce; stop
               defensively instead of looping. *)
            continue := false
          else Dijkstra.relax_potentials w.ws ~potential:pot ~d_dst
    end
  done;
  match !error with
  | Some e ->
      Obs.incr c_errors;
      Error e
  | None -> Ok { flow = !total_flow; cost = !total_cost; iterations = !iterations }

let run ?deadline ?(max_flow = max_int) g ~src ~dst =
  (* An explicit [deadline] keeps this a Result API: its expiry anywhere in
     the solve (SPFA bootstrap, a Dijkstra phase, the blocking flow)
     comes back as the typed [Deadline_exceeded]. An *ambient* deadline
     (armed by scheduler middleware) instead propagates as
     {!Deadline.Expired} so the middleware can catch it batch-wide and
     escalate down its degradation ladder. *)
  let dl = Deadline.resolve deadline in
  match solve ~dl ~max_flow g ~src ~dst with
  | r -> r
  | exception Deadline.Expired { site; deadline = d }
    when (match deadline with Some d' -> d' == d | None -> false) ->
      Obs.incr c_errors;
      Error (Error.Deadline_exceeded site)
