(* Differential testing of the flow solvers on seeded random networks:
   every max-flow solver must agree on the flow value, every min-cost
   solver must agree on (flow, cost) with a Bellman–Ford-based successive
   shortest path oracle, and each recorded assignment must be a feasible
   flow (conservation + capacity respect on every arc). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Generators and oracles come from the shared [Gen] module; aliases keep
   the test bodies unchanged. *)
let random_flow_graph = Gen.random_flow_graph
let random_dag = Gen.random_dag
let assert_feasible = Gen.assert_feasible
let ssp_bellman_ford = Gen.ssp_bellman_ford
let mincost_exn = Gen.mincost_exn
let solve_exn = Gen.solve_exn
let registered = Gen.registered

(* ---------- max-flow differential ---------- *)

let test_maxflow_differential () =
  let rng = Rng.create 0xD1FF in
  for _case = 1 to 30 do
    let n = 8 + Rng.int rng 24 in
    let m = n * (2 + Rng.int rng 3) in
    let g, src, dst = random_flow_graph rng ~n ~m ~max_cap:20 in
    let f_dinic = Flownet.Dinic.run g ~src ~dst in
    assert_feasible g ~src ~dst ~value:f_dinic;
    Flownet.Graph.reset_flows g;
    let f_ek = Flownet.Maxflow.run g ~src ~dst in
    assert_feasible g ~src ~dst ~value:f_ek;
    check int "dinic = edmonds-karp" f_dinic f_ek
  done

(* ---------- min-cost differential ---------- *)

let test_mincost_differential () =
  let rng = Rng.create 0xC057 in
  for _case = 1 to 25 do
    let n = 6 + Rng.int rng 20 in
    let m = n * (2 + Rng.int rng 3) in
    let g, src, dst = random_dag rng ~n ~m ~max_cap:10 ~max_cost:50 in
    let ssp = mincost_exn g ~src ~dst in
    assert_feasible g ~src ~dst ~value:ssp.Flownet.Mincost.flow;
    Flownet.Graph.reset_flows g;
    let cs = Flownet.Cost_scaling.run g ~src ~dst in
    assert_feasible g ~src ~dst ~value:cs.Flownet.Mincost.flow;
    let bf_flow, bf_cost = ssp_bellman_ford g ~src ~dst in
    assert_feasible g ~src ~dst ~value:bf_flow;
    Flownet.Graph.reset_flows g;
    let max_flow = Flownet.Dinic.run g ~src ~dst in
    check int "ssp flow is maximal" max_flow ssp.Flownet.Mincost.flow;
    check int "ssp = cost-scaling (flow)" ssp.Flownet.Mincost.flow
      cs.Flownet.Mincost.flow;
    check int "ssp = cost-scaling (cost)" ssp.Flownet.Mincost.cost
      cs.Flownet.Mincost.cost;
    check int "ssp = bellman-ford oracle (flow)" ssp.Flownet.Mincost.flow
      bf_flow;
    check int "ssp = bellman-ford oracle (cost)" ssp.Flownet.Mincost.cost
      bf_cost
  done

(* ---------- registry differential ---------- *)

let test_registry_lists_all_backends () =
  Alcotest.(check (list string))
    "two built-in backends"
    [ "cost-scaling"; "mincost" ]
    (Flownet.Registry.names ());
  check bool "unknown name" true (Flownet.Registry.find "simplex" = None);
  check bool "default registered" true
    (Flownet.Registry.find Flownet.Registry.default <> None)

(* Every registered backend, on the same random negative-cost DAGs: flows
   are maximal and feasible, and costs match the Bellman–Ford
   successive-shortest-path oracle. *)
let test_registry_differential () =
  let backends = registered () in
  let rng = Rng.create 0x4E61 in
  for _case = 1 to 20 do
    let n = 6 + Rng.int rng 20 in
    let m = n * (2 + Rng.int rng 3) in
    let g, src, dst = random_dag rng ~n ~m ~max_cap:10 ~max_cost:50 in
    let bf_flow, bf_cost = ssp_bellman_ford g ~src ~dst in
    List.iter
      (fun backend ->
        let name = Flownet.Registry.name backend in
        Flownet.Graph.reset_flows g;
        let s = solve_exn backend g ~src ~dst in
        assert_feasible g ~src ~dst ~value:s.Flownet.Mincost.flow;
        check int (name ^ " flow is maximal") bf_flow s.Flownet.Mincost.flow;
        check int (name ^ " cost is optimal") bf_cost s.Flownet.Mincost.cost)
      backends
  done

(* The near-max_int regression case from the error-path PR, across the
   whole registry. Saturating adds make a two-big-hop label equal max_int =
   "unreachable", so the path-based SSP pushes nothing; cost scaling
   routes its flow with a cost-blind Dinic phase first and pushes the
   single unit. This divergence is semantics, not a bug — pin it for
   every backend. *)
let test_registry_near_max_int () =
  let big = max_int - 10 in
  List.iter
    (fun backend ->
      let name = Flownet.Registry.name backend in
      let g = Flownet.Graph.create 3 in
      ignore (Flownet.Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:big);
      ignore (Flownet.Graph.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:big);
      let s = solve_exn backend g ~src:0 ~dst:2 in
      (* cost-scaling multiplies costs by (n+1), so its near-max_int cost
         wraps — only the flow value is meaningful there. *)
      let expected = if name = "mincost" then 0 else 1 in
      check int (name ^ " near-max_int flow") expected s.Flownet.Mincost.flow)
    (registered ())

(* Deterministic negative-cost-arc case: the diamond where the cheap route
   uses a negative shortcut. *)
let test_registry_negative_arc () =
  List.iter
    (fun backend ->
      let name = Flownet.Registry.name backend in
      let g = Flownet.Graph.create 4 in
      ignore (Flownet.Graph.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:1);
      ignore (Flownet.Graph.add_arc g ~src:0 ~dst:2 ~cap:2 ~cost:4);
      ignore (Flownet.Graph.add_arc g ~src:1 ~dst:2 ~cap:2 ~cost:(-2));
      ignore (Flownet.Graph.add_arc g ~src:2 ~dst:3 ~cap:3 ~cost:1);
      let s = solve_exn backend g ~src:0 ~dst:3 in
      check int (name ^ " flow") 3 s.Flownet.Mincost.flow;
      (* 2 units via 0→1→2→3 at cost 0 each, 1 unit via 0→2→3 at cost 5 *)
      check int (name ^ " cost") 5 s.Flownet.Mincost.cost)
    (registered ())

(* The max_flow cap, which every backend honours: capped flow = min(cap,
   max-flow), still feasible. *)
let test_registry_max_flow_cap () =
  let rng = Rng.create 0xCA9 in
  for _case = 1 to 10 do
    let n = 6 + Rng.int rng 16 in
    let g, src, dst = random_dag rng ~n ~m:(n * 3) ~max_cap:8 ~max_cost:30 in
    let full = ssp_bellman_ford g ~src ~dst in
    let cap = 1 + Rng.int rng (max 1 (fst full)) in
    List.iter
      (fun backend ->
        let name = Flownet.Registry.name backend in
        Flownet.Graph.reset_flows g;
        let s = solve_exn backend ~max_flow:cap g ~src ~dst in
        check int (name ^ " capped flow") (min cap (fst full))
          s.Flownet.Mincost.flow;
        assert_feasible g ~src ~dst ~value:s.Flownet.Mincost.flow)
      (registered ())
  done

let () =
  Alcotest.run "differential"
    [
      ( "maxflow",
        [
          Alcotest.test_case "dinic = edmonds-karp" `Quick
            test_maxflow_differential;
        ] );
      ( "mincost",
        [
          Alcotest.test_case "ssp = cost-scaling = bellman-ford oracle" `Quick
            test_mincost_differential;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lists all backends" `Quick
            test_registry_lists_all_backends;
          Alcotest.test_case "all backends agree on random DAGs" `Quick
            test_registry_differential;
          Alcotest.test_case "near-max_int case per backend" `Quick
            test_registry_near_max_int;
          Alcotest.test_case "negative-cost-arc case per backend" `Quick
            test_registry_negative_arc;
          Alcotest.test_case "max_flow cap honoured where claimed" `Quick
            test_registry_max_flow_cap;
        ] );
    ]
