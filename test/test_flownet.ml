(* Tests for the flow-network substrate: graph arena, shortest paths,
   max-flow (Edmonds-Karp and Dinic), min-cost flow, multidim capacities. *)

module G = Flownet.Graph
module Path = Flownet.Path

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Unwrap the solvers' Result APIs where a test expects success. *)
let spfa_exn ?admit g ~src =
  match Flownet.Spfa.run ?admit g ~src with
  | Ok r -> r
  | Error e -> Alcotest.failf "spfa error: %s" (Flownet.Error.to_string e)

let sp_exn ?admit g ~src ~dst =
  match Flownet.Spfa.shortest_path ?admit g ~src ~dst with
  | Ok p -> p
  | Error e -> Alcotest.failf "spfa error: %s" (Flownet.Error.to_string e)

let mincost_exn ?max_flow g ~src ~dst =
  match Flownet.Mincost.run ?max_flow g ~src ~dst with
  | Ok s -> s
  | Error e -> Alcotest.failf "mincost error: %s" (Flownet.Error.to_string e)

(* ---------- graph arena ---------- *)

let test_graph_basics () =
  let g = G.create 4 in
  let a = G.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:2 in
  let b = G.add_arc g ~src:1 ~dst:2 ~cap:3 ~cost:(-1) in
  check int "vertices" 4 (G.n_vertices g);
  check int "arcs incl twins" 4 (G.n_arcs g);
  check int "src" 0 (G.src g a);
  check int "dst" 1 (G.dst g a);
  check int "cap" 5 (G.capacity g a);
  check int "cost" 2 (G.cost g a);
  check int "twin id" (a + 1) (G.rev a);
  check int "twin cap" 0 (G.capacity g (G.rev a));
  check int "twin cost" (-2) (G.cost g (G.rev a));
  check bool "forward" true (G.is_forward a);
  check bool "twin not forward" false (G.is_forward (G.rev a));
  check int "residual" 5 (G.residual g a);
  G.push g a 3;
  check int "flow after push" 3 (G.flow g a);
  check int "residual after push" 2 (G.residual g a);
  check int "twin residual grows" 3 (G.residual g (G.rev a));
  check int "outflow" 3 (G.outflow g 0);
  ignore b

let test_graph_push_over () =
  let g = G.create 2 in
  let a = G.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0 in
  Alcotest.check_raises "push over capacity"
    (Invalid_argument "Graph.push: exceeds residual capacity") (fun () ->
      G.push g a 2)

let test_graph_bad_args () =
  let g = G.create 2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Graph.add_arc: negative capacity") (fun () ->
      ignore (G.add_arc g ~src:0 ~dst:1 ~cap:(-1) ~cost:0));
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Graph.add_arc: vertex out of range") (fun () ->
      ignore (G.add_arc g ~src:0 ~dst:5 ~cap:1 ~cost:0))

let test_graph_grows () =
  let g = G.create ~arc_hint:1 3 in
  for _ = 1 to 100 do
    ignore (G.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0)
  done;
  check int "200 arcs stored" 200 (G.n_arcs g);
  check int "out degree includes twins" 100 (G.out_degree g 0)

let test_reset_flows () =
  let g = G.create 2 in
  let a = G.add_arc g ~src:0 ~dst:1 ~cap:4 ~cost:0 in
  G.push g a 4;
  G.reset_flows g;
  check int "flow reset" 0 (G.flow g a);
  check int "residual restored" 4 (G.residual g a)

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* The CSR view must be invalidated by add_arc and survive flow pushes.
   Regression test for the freeze lifecycle. *)
let test_freeze_lifecycle () =
  let g = G.create 3 in
  let a = G.add_arc g ~src:0 ~dst:1 ~cap:4 ~cost:0 in
  check bool "new graph not frozen" false (G.frozen g);
  Alcotest.check_raises "first_out before freeze"
    (Invalid_argument "Graph.first_out: graph not frozen") (fun () ->
      ignore (G.first_out g));
  G.freeze g;
  check bool "frozen after freeze" true (G.frozen g);
  let first = G.first_out g and arcs = G.arc_of g in
  check int "offsets length" (G.n_vertices g + 1) (Flownet.Ia.length first);
  check int "vertex 0 out-degree" 1 (first.{1} - first.{0});
  check int "vertex 0 first arc" a arcs.{first.{0}};
  (* flow updates keep the view valid *)
  G.push g a 2;
  check bool "push keeps frozen" true (G.frozen g);
  (* topology changes invalidate it *)
  ignore (G.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:0);
  check bool "add_arc dirties" false (G.frozen g);
  Alcotest.check_raises "arc_of after add_arc"
    (Invalid_argument "Graph.arc_of: graph not frozen") (fun () ->
      ignore (G.arc_of g));
  G.freeze g;
  check bool "refrozen" true (G.frozen g);
  check int "view rebuilt over the grown arena" 4
    (G.first_out g).{G.n_vertices g};
  check int "flow survives the refreeze" 2 (G.flow g a)

let test_pp_frozen_tag () =
  let g = G.create 2 in
  ignore (G.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0);
  let dump () = Format.asprintf "%a" G.pp g in
  check bool "dirty before freeze" true (contains ~sub:"(dirty)" (dump ()));
  G.freeze g;
  check bool "frozen after freeze" true (contains ~sub:"(frozen)" (dump ()))

(* ---------- heap ---------- *)

let test_heap_sorts () =
  let h = Flownet.Heap.create () in
  let xs = [ 5; 1; 9; 3; 7; 2; 8; 0; 4; 6 ] in
  List.iter (fun k -> Flownet.Heap.push h ~key:k ~value:(10 * k)) xs;
  let out = ref [] in
  let rec drain () =
    match Flownet.Heap.pop_min h with
    | Some (k, v) ->
        check int "value matches key" (10 * k) v;
        out := k :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

(* ---------- shortest paths ---------- *)

(* Diamond with a negative shortcut: 0→1 (1), 0→2 (4), 1→2 (-2), 2→3 (1). *)
let diamond () =
  let g = G.create 4 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1 in
  let _ = G.add_arc g ~src:0 ~dst:2 ~cap:10 ~cost:4 in
  let _ = G.add_arc g ~src:1 ~dst:2 ~cap:10 ~cost:(-2) in
  let _ = G.add_arc g ~src:2 ~dst:3 ~cap:10 ~cost:1 in
  g

let test_spfa_negative_costs () =
  let g = diamond () in
  let r = spfa_exn g ~src:0 in
  check int "dist to 3 via negative arc" 0 r.Flownet.Spfa.dist.{3};
  check int "dist to 2" (-1) r.Flownet.Spfa.dist.{2}

let test_spfa_matches_bellman_ford () =
  let g = diamond () in
  let s = spfa_exn g ~src:0 in
  let b = Flownet.Bellman_ford.run g ~src:0 in
  check bool "no negative cycle" false b.Flownet.Bellman_ford.negative_cycle;
  Alcotest.(check (array int)) "distances agree"
    (Flownet.Ia.to_array b.Flownet.Bellman_ford.dist)
    (Flownet.Ia.to_array s.Flownet.Spfa.dist)

let test_spfa_admit_filter () =
  let g = diamond () in
  (* Forbid the negative shortcut (arc id 4 = third add_arc's forward). *)
  let p = sp_exn ~admit:(fun a -> a <> 4) g ~src:0 ~dst:3 in
  match p with
  | None -> Alcotest.fail "path expected"
  | Some p -> check int "cost without shortcut" 5 (Path.cost g p)

let test_spfa_unreachable () =
  let g = G.create 3 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0 in
  let r = spfa_exn g ~src:0 in
  check int "unreachable is max_int" max_int r.Flownet.Spfa.dist.{2};
  check bool "no path" true (sp_exn g ~src:0 ~dst:2 = None)

let test_spfa_negative_cycle () =
  let g = G.create 3 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:1 in
  let _ = G.add_arc g ~src:1 ~dst:2 ~cap:5 ~cost:(-3) in
  let _ = G.add_arc g ~src:2 ~dst:1 ~cap:5 ~cost:1 in
  match Flownet.Spfa.run g ~src:0 with
  | Ok _ -> Alcotest.fail "negative cycle not reported"
  | Error (Flownet.Error.Negative_cycle arcs) ->
      check bool "cycle reconstructed" true (arcs <> []);
      let total = List.fold_left (fun acc a -> acc + G.cost g a) 0 arcs in
      check bool "cycle cost is negative" true (total < 0);
      (* consecutive arcs chain head-to-tail and the walk closes *)
      let rec chained = function
        | x :: (y :: _ as rest) -> G.dst g x = G.src g y && chained rest
        | [ last ] -> G.dst g last = G.src g (List.hd arcs)
        | [] -> true
      in
      check bool "arcs close a cycle" true (chained arcs)
  | Error e -> Alcotest.failf "unexpected error: %s" (Flownet.Error.to_string e)

(* Regression: near-max_int costs used to wrap around in the dist + cost
   relaxations, producing negative labels (or phantom negative cycles).
   With saturating adds the label clamps at the unreachable sentinel. *)
let test_near_max_int_costs_saturate () =
  let big = max_int - 10 in
  let g = G.create 3 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:big in
  let _ = G.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:big in
  let r = spfa_exn g ~src:0 in
  check int "one hop is exact" big r.Flownet.Spfa.dist.{1};
  check int "two hops saturate at max_int" max_int r.Flownet.Spfa.dist.{2};
  let b = Flownet.Bellman_ford.run g ~src:0 in
  check bool "no phantom negative cycle" false
    b.Flownet.Bellman_ford.negative_cycle;
  Alcotest.(check (array int)) "bellman-ford agrees"
    (Flownet.Ia.to_array r.Flownet.Spfa.dist)
    (Flownet.Ia.to_array b.Flownet.Bellman_ford.dist);
  (* the min-cost solver must survive the same graph (dst label saturates
     to "unreachable", so it pushes nothing rather than crash or loop) *)
  let s = mincost_exn g ~src:0 ~dst:2 in
  check int "no flow pushed" 0 s.Flownet.Mincost.flow

let test_dijkstra_rejects_negative () =
  let g = diamond () in
  let potential = Flownet.Ia.create 4 in
  Alcotest.check_raises "negative reduced cost"
    (Invalid_argument "Dijkstra.run: negative reduced cost") (fun () ->
      ignore (Flownet.Dijkstra.run g ~src:0 ~potential))

let test_dijkstra_with_potentials () =
  let g = diamond () in
  let s = spfa_exn g ~src:0 in
  let r = Flownet.Dijkstra.run g ~src:0 ~potential:s.Flownet.Spfa.dist in
  (* with exact potentials all reduced distances are 0 on shortest paths *)
  check int "reduced dist 3" 0 r.Flownet.Dijkstra.dist.{3}

(* ---------- max flow ---------- *)

(* CLRS figure: max flow 23. *)
let clrs () =
  let g = G.create 6 in
  let add s d c = ignore (G.add_arc g ~src:s ~dst:d ~cap:c ~cost:0) in
  add 0 1 16; add 0 2 13; add 1 2 10; add 2 1 4; add 1 3 12; add 3 2 9;
  add 2 4 14; add 4 3 7; add 3 5 20; add 4 5 4;
  g

let test_edmonds_karp_clrs () =
  let g = clrs () in
  check int "max flow" 23 (Flownet.Maxflow.run g ~src:0 ~dst:5)

let test_dinic_clrs () =
  let g = clrs () in
  check int "max flow" 23 (Flownet.Dinic.run g ~src:0 ~dst:5)

let cut_capacity g reachable =
  let total = ref 0 in
  for a = 0 to G.n_arcs g - 1 do
    if G.is_forward a && reachable.(G.src g a) && not (reachable.(G.dst g a))
    then total := !total + G.capacity g a
  done;
  !total

let test_min_cut_equals_flow () =
  let g = clrs () in
  let f = Flownet.Maxflow.run g ~src:0 ~dst:5 in
  let cut = Flownet.Maxflow.min_cut g ~src:0 in
  check bool "source in cut" true cut.(0);
  check bool "sink not in cut" false cut.(5);
  check int "cut capacity = flow" f (cut_capacity g cut)

let test_flow_conservation_clrs () =
  let g = clrs () in
  let f = Flownet.Maxflow.run g ~src:0 ~dst:5 in
  check int "source outflow" f (G.outflow g 0);
  check int "sink outflow" (-f) (G.outflow g 5);
  for v = 1 to 4 do
    check int "conservation" 0 (G.outflow g v)
  done

let test_disconnected_flow () =
  let g = G.create 4 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:5 ~cost:0 in
  let _ = G.add_arc g ~src:2 ~dst:3 ~cap:5 ~cost:0 in
  check int "no path no flow" 0 (Flownet.Maxflow.run g ~src:0 ~dst:3);
  check int "dinic agrees" 0 (Flownet.Dinic.run g ~src:0 ~dst:3)

(* ---------- min cost flow ---------- *)

let test_mincost_prefers_cheap_path () =
  let g = G.create 4 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1 in
  let _ = G.add_arc g ~src:0 ~dst:2 ~cap:10 ~cost:5 in
  let _ = G.add_arc g ~src:1 ~dst:3 ~cap:4 ~cost:1 in
  let _ = G.add_arc g ~src:2 ~dst:3 ~cap:10 ~cost:1 in
  let s = mincost_exn g ~src:0 ~dst:3 in
  check int "full flow" 14 s.Flownet.Mincost.flow;
  (* 4 units at cost 2, 10 units at cost 6 *)
  check int "optimal cost" 68 s.Flownet.Mincost.cost

let test_mincost_max_flow_bound () =
  let g = G.create 4 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1 in
  let _ = G.add_arc g ~src:1 ~dst:3 ~cap:10 ~cost:1 in
  let s = mincost_exn ~max_flow:3 g ~src:0 ~dst:3 in
  check int "bounded flow" 3 s.Flownet.Mincost.flow;
  check int "bounded cost" 6 s.Flownet.Mincost.cost

let test_mincost_negative_arc () =
  let g = diamond () in
  let s = mincost_exn ~max_flow:1 g ~src:0 ~dst:3 in
  check int "flow" 1 s.Flownet.Mincost.flow;
  check int "uses negative shortcut" 0 s.Flownet.Mincost.cost

let test_cost_scaling_simple () =
  let g = G.create 4 in
  let _ = G.add_arc g ~src:0 ~dst:1 ~cap:10 ~cost:1 in
  let _ = G.add_arc g ~src:0 ~dst:2 ~cap:10 ~cost:5 in
  let _ = G.add_arc g ~src:1 ~dst:3 ~cap:4 ~cost:1 in
  let _ = G.add_arc g ~src:2 ~dst:3 ~cap:10 ~cost:1 in
  let s = Flownet.Cost_scaling.run g ~src:0 ~dst:3 in
  check int "full flow" 14 s.Flownet.Mincost.flow;
  check int "optimal cost" 68 s.Flownet.Mincost.cost

let test_cost_scaling_negative_arc () =
  let g = diamond () in
  let s = Flownet.Cost_scaling.run g ~src:0 ~dst:3 in
  check int "max flow" 10 s.Flownet.Mincost.flow;
  (* all 10 units via the negative shortcut: cost 0 each *)
  check int "optimal cost" 0 s.Flownet.Mincost.cost

(* ---------- property tests ---------- *)

let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* m = int_range 1 20 in
    let* arcs =
      list_repeat m
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 10))
    in
    return (n, arcs))

let build (n, arcs) =
  let g = G.create n in
  List.iter
    (fun (s, d, c) -> if s <> d then ignore (G.add_arc g ~src:s ~dst:d ~cap:c ~cost:0))
    arcs;
  g

let prop_dinic_equals_edmonds_karp =
  QCheck.Test.make ~count:300 ~name:"dinic = edmonds-karp on random graphs"
    (QCheck.make random_graph_gen) (fun spec ->
      let g1 = build spec and g2 = build spec in
      Flownet.Maxflow.run g1 ~src:0 ~dst:(fst spec - 1)
      = Flownet.Dinic.run g2 ~src:0 ~dst:(fst spec - 1))

let prop_flow_conservation =
  QCheck.Test.make ~count:300 ~name:"flow conservation on random graphs"
    (QCheck.make random_graph_gen) (fun spec ->
      let n = fst spec in
      let g = build spec in
      let f = Flownet.Maxflow.run g ~src:0 ~dst:(n - 1) in
      G.outflow g 0 = f
      && G.outflow g (n - 1) = -f
      && List.for_all
           (fun v -> G.outflow g v = 0)
           (List.init (max 0 (n - 2)) (fun i -> i + 1)))

let prop_capacity_respected =
  QCheck.Test.make ~count:300 ~name:"flows within capacities"
    (QCheck.make random_graph_gen) (fun spec ->
      let g = build spec in
      ignore (Flownet.Maxflow.run g ~src:0 ~dst:(fst spec - 1));
      let ok = ref true in
      for a = 0 to G.n_arcs g - 1 do
        if G.is_forward a then begin
          let f = G.flow g a in
          if f < 0 || f > G.capacity g a then ok := false
        end
      done;
      !ok)

let random_cost_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 7 in
    let* m = int_range 1 16 in
    let* arcs =
      list_repeat m
        (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 8)
           (int_range 0 9))
    in
    return (n, arcs))

let build_cost (n, arcs) =
  let g = G.create n in
  List.iter
    (fun (s, d, c, w) ->
      if s <> d then ignore (G.add_arc g ~src:s ~dst:d ~cap:c ~cost:w))
    arcs;
  g

let prop_cost_scaling_equals_ssp =
  QCheck.Test.make ~count:300
    ~name:"cost scaling = successive shortest paths (flow and cost)"
    (QCheck.make random_cost_graph_gen) (fun spec ->
      let n = fst spec in
      let g1 = build_cost spec and g2 = build_cost spec in
      let a = mincost_exn g1 ~src:0 ~dst:(n - 1) in
      let b = Flownet.Cost_scaling.run g2 ~src:0 ~dst:(n - 1) in
      a.Flownet.Mincost.flow = b.Flownet.Mincost.flow
      && a.Flownet.Mincost.cost = b.Flownet.Mincost.cost)

let prop_cost_scaling_conservation =
  QCheck.Test.make ~count:300 ~name:"cost scaling conserves flow"
    (QCheck.make random_cost_graph_gen) (fun spec ->
      let n = fst spec in
      let g = build_cost spec in
      let s = Flownet.Cost_scaling.run g ~src:0 ~dst:(n - 1) in
      G.outflow g 0 = s.Flownet.Mincost.flow
      && List.for_all
           (fun v -> G.outflow g v = 0)
           (List.init (max 0 (n - 2)) (fun i -> i + 1)))

let prop_mincut_equals_maxflow =
  QCheck.Test.make ~count:300 ~name:"min cut capacity = max flow"
    (QCheck.make random_graph_gen) (fun spec ->
      let g = build spec in
      let f = Flownet.Maxflow.run g ~src:0 ~dst:(fst spec - 1) in
      let cut = Flownet.Maxflow.min_cut g ~src:0 in
      if cut.(fst spec - 1) then f > 0 || cut_capacity g cut >= f
      else cut_capacity g cut = f)

(* ---------- path ---------- *)

let test_path_ops () =
  let g = diamond () in
  match sp_exn g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "path expected"
  | Some p ->
      check int "bottleneck" 10 p.Path.bottleneck;
      Alcotest.(check (list int)) "vertices" [ 0; 1; 2; 3 ] (Path.vertices g p);
      Path.augment g p 10;
      check bool "second search avoids saturated arcs" true
        (match sp_exn g ~src:0 ~dst:3 with Some _ | None -> true)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dinic_equals_edmonds_karp;
      prop_flow_conservation;
      prop_capacity_respected;
      prop_mincut_equals_maxflow;
      prop_cost_scaling_equals_ssp;
      prop_cost_scaling_conservation;
    ]

let () =
  Alcotest.run "flownet"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "push over capacity" `Quick test_graph_push_over;
          Alcotest.test_case "bad args" `Quick test_graph_bad_args;
          Alcotest.test_case "arena grows" `Quick test_graph_grows;
          Alcotest.test_case "reset flows" `Quick test_reset_flows;
          Alcotest.test_case "freeze lifecycle" `Quick test_freeze_lifecycle;
          Alcotest.test_case "pp frozen/dirty tag" `Quick test_pp_frozen_tag;
        ] );
      ("heap", [ Alcotest.test_case "sorts" `Quick test_heap_sorts ]);
      ( "shortest-path",
        [
          Alcotest.test_case "spfa negative costs" `Quick
            test_spfa_negative_costs;
          Alcotest.test_case "spfa = bellman-ford" `Quick
            test_spfa_matches_bellman_ford;
          Alcotest.test_case "admit filter" `Quick test_spfa_admit_filter;
          Alcotest.test_case "unreachable" `Quick test_spfa_unreachable;
          Alcotest.test_case "negative cycle reported" `Quick
            test_spfa_negative_cycle;
          Alcotest.test_case "near-max_int costs saturate" `Quick
            test_near_max_int_costs_saturate;
          Alcotest.test_case "dijkstra rejects negative" `Quick
            test_dijkstra_rejects_negative;
          Alcotest.test_case "dijkstra with potentials" `Quick
            test_dijkstra_with_potentials;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "edmonds-karp CLRS" `Quick test_edmonds_karp_clrs;
          Alcotest.test_case "dinic CLRS" `Quick test_dinic_clrs;
          Alcotest.test_case "min cut = flow" `Quick test_min_cut_equals_flow;
          Alcotest.test_case "conservation" `Quick test_flow_conservation_clrs;
          Alcotest.test_case "disconnected" `Quick test_disconnected_flow;
        ] );
      ( "mincost",
        [
          Alcotest.test_case "prefers cheap path" `Quick
            test_mincost_prefers_cheap_path;
          Alcotest.test_case "max_flow bound" `Quick test_mincost_max_flow_bound;
          Alcotest.test_case "negative arc" `Quick test_mincost_negative_arc;
          Alcotest.test_case "cost-scaling simple" `Quick
            test_cost_scaling_simple;
          Alcotest.test_case "cost-scaling negative arc" `Quick
            test_cost_scaling_negative_arc;
        ] );
      ("path", [ Alcotest.test_case "ops" `Quick test_path_ops ]);
      ("properties", qtests);
    ]
