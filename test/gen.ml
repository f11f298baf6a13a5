(* Shared property-based generators and oracles for the test suite.

   Everything is seeded through an explicit [Rng.t], threaded by the
   caller, so a failing case reproduces from its seed alone. Three
   families live here:

   - cluster/workload helpers: fresh clusters sized to a workload, batch
     splitting, placement fingerprints (used by the incremental, cells
     and stress suites);
   - random workload generation: synthetic apps with anti-affinity
     (within and across), priority classes and mixed demands, plus
     seeded random batch sequences;
   - flownet generators and oracles: random digraphs/DAGs, the
     feasibility checker and the Bellman–Ford successive-shortest-path
     oracle (used by the solver differential suites). *)

(* ---------- cluster / workload helpers ---------- *)

let fresh_cluster ?machines_per_rack ?racks_per_group w ~n_machines =
  Cluster.create
    (Workload.topology ?machines_per_rack ?racks_per_group w ~n_machines)
    ~constraints:(Workload.constraint_set w)

(* Machines needed to hold the workload's total CPU demand, plus headroom. *)
let machines_for w ~headroom =
  let total =
    (Resource.to_array (Workload.total_demand w)).(Resource.cpu_dim)
  in
  let per =
    (Resource.to_array w.Workload.machine_capacity).(Resource.cpu_dim)
  in
  max 4 (int_of_float (ceil (headroom *. float_of_int total /. float_of_int per)))

(* Split a container array into ~n_batches equal contiguous waves. *)
let waves containers ~n_batches =
  let n = Array.length containers in
  let per = max 1 ((n + n_batches - 1) / n_batches) in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min per (n - i) in
      go (i + len) (Array.sub containers i len :: acc)
  in
  go 0 []

(* Split a container array into randomly sized waves (at least one per
   wave, at most [max_batch]); the rng threads the case's seed. *)
let random_waves rng containers ~max_batch =
  let n = Array.length containers in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min (1 + Rng.int rng max_batch) (n - i) in
      go (i + len) (Array.sub containers i len :: acc)
  in
  go 0 []

let sorted_placements cl = List.sort compare (Cluster.placements cl)
let ids l = List.map (fun (c : Container.t) -> c.Container.id) l

(* One comparable string per cluster state — the differential suites'
   equality fingerprint (container -> machine, sorted). *)
let placement_fingerprint cl =
  String.concat ";"
    (List.map
       (fun (cid, mid) -> Printf.sprintf "%d@%d" cid mid)
       (sorted_placements cl))

(* ---------- random workloads ---------- *)

(* Synthetic workload with the constraint shapes the schedulers care
   about: ~60% of apps anti-affine within, ~25% conflicting with an
   earlier app, ~30% carrying a nonzero priority class, demands 1..8 CPU
   on [machine_cpu]-CPU machines. Submission order is a seeded
   interleaving, so batches mix apps. *)
let random_workload ?(n_apps = 0) ?(machine_cpu = 16.) rng =
  let n_apps = if n_apps > 0 then n_apps else 4 + Rng.int rng 12 in
  let apps =
    Array.init n_apps (fun i ->
        let anti_within = Rng.bool rng 0.6 in
        let across =
          if i > 0 && Rng.bool rng 0.25 then [ Rng.int rng i ] else []
        in
        Application.make ~id:i
          ~n_containers:(1 + Rng.int rng 12)
          ~demand:
            (let cpu = float_of_int (1 + Rng.int rng 8) in
             Resource.make ~cpu ~mem_gb:(2. *. cpu))
          ~priority:(if Rng.bool rng 0.3 then 1 + Rng.int rng 3 else 0)
          ~anti_affinity_within:anti_within ~anti_affinity_across:across ())
  in
  let containers =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (a : Application.t) ->
              Array.of_list (Application.containers a ~first_id:0 ~first_arrival:0))
            apps))
  in
  (* seeded Fisher–Yates; Workload.make re-ids arrivals to array order *)
  let containers = Array.copy containers in
  Array.iteri
    (fun i (c : Container.t) ->
      ignore c;
      let j = Rng.int rng (i + 1) in
      let tmp = containers.(i) in
      containers.(i) <- containers.(j);
      containers.(j) <- tmp)
    containers;
  let containers =
    Array.mapi
      (fun i (c : Container.t) -> { c with Container.id = i; arrival = i })
      containers
  in
  Workload.make ~apps ~containers
    ~machine_capacity:(Resource.make ~cpu:machine_cpu ~mem_gb:(2. *. machine_cpu))

(* ---------- flownet generators ---------- *)

(* General digraph for max-flow differentials: random arcs plus a few
   forced source/sink attachments so the flow is usually nonzero. *)
let random_flow_graph rng ~n ~m ~max_cap =
  let g = Flownet.Graph.create ~arc_hint:(m + 8) n in
  let src = 0 and dst = n - 1 in
  for _ = 1 to m do
    let s = Rng.int rng n and d = Rng.int rng n in
    if s <> d then
      ignore
        (Flownet.Graph.add_arc g ~src:s ~dst:d ~cap:(1 + Rng.int rng max_cap)
           ~cost:0)
  done;
  for _ = 1 to 4 do
    let v = 1 + Rng.int rng (n - 2) in
    ignore
      (Flownet.Graph.add_arc g ~src ~dst:v ~cap:(1 + Rng.int rng max_cap)
         ~cost:0);
    ignore
      (Flownet.Graph.add_arc g ~src:v ~dst ~cap:(1 + Rng.int rng max_cap)
         ~cost:0)
  done;
  (g, src, dst)

(* DAG (arcs only low → high vertex) for min-cost differentials: negative
   costs allowed, acyclicity rules out negative cycles. *)
let random_dag rng ~n ~m ~max_cap ~max_cost =
  let g = Flownet.Graph.create ~arc_hint:(m + n) n in
  let src = 0 and dst = n - 1 in
  for _ = 1 to m do
    let s = Rng.int rng (n - 1) in
    let d = s + 1 + Rng.int rng (n - 1 - s) in
    let cost =
      if Rng.bool rng 0.25 then -(1 + Rng.int rng (max_cost / 4))
      else Rng.int rng max_cost
    in
    ignore
      (Flownet.Graph.add_arc g ~src:s ~dst:d ~cap:(1 + Rng.int rng max_cap)
         ~cost)
  done;
  for v = 0 to n - 2 do
    if Rng.bool rng 0.3 then
      ignore
        (Flownet.Graph.add_arc g ~src:v ~dst:(v + 1)
           ~cap:(1 + Rng.int rng max_cap) ~cost:(Rng.int rng max_cost))
  done;
  (g, src, dst)

(* ---------- flow oracles ---------- *)

let mincost_exn ?max_flow g ~src ~dst =
  match Flownet.Mincost.run ?max_flow g ~src ~dst with
  | Ok s -> s
  | Error e -> Alcotest.failf "mincost error: %s" (Flownet.Error.to_string e)

let solve_exn backend ?max_flow g ~src ~dst =
  match Flownet.Registry.solve backend ?max_flow g ~src ~dst with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "%s error: %s"
        (Flownet.Registry.name backend)
        (Flownet.Error.to_string e)

let registered () =
  List.map
    (fun n ->
      match Flownet.Registry.find n with
      | Some b -> b
      | None -> Alcotest.failf "registry lost backend %s" n)
    (Flownet.Registry.names ())

(* Conservation + capacity respect on every arc, and the claimed value on
   the source/sink. *)
let assert_feasible g ~src ~dst ~value =
  let n = Flownet.Graph.n_vertices g in
  for a = 0 to Flownet.Graph.n_arcs g - 1 do
    if Flownet.Graph.is_forward a then begin
      let f = Flownet.Graph.flow g a in
      if f < 0 || f > Flownet.Graph.capacity g a then
        Alcotest.failf "arc %d: flow %d outside [0, %d]" a f
          (Flownet.Graph.capacity g a)
    end;
    if Flownet.Graph.residual g a < 0 then
      Alcotest.failf "arc %d: negative residual" a
  done;
  for v = 0 to n - 1 do
    let out = Flownet.Graph.outflow g v in
    if v = src then Alcotest.check Alcotest.int "source outflow = value" value out
    else if v = dst then
      Alcotest.check Alcotest.int "sink outflow = -value" (-value) out
    else if out <> 0 then Alcotest.failf "vertex %d: conservation broken" v
  done

(* Bellman–Ford successive-shortest-path min-cost oracle. *)
let ssp_bellman_ford g ~src ~dst =
  Flownet.Graph.reset_flows g;
  let flow = ref 0 and cost = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let r = Flownet.Bellman_ford.run g ~src in
    if r.Flownet.Bellman_ford.negative_cycle then
      Alcotest.fail "oracle: negative cycle in residual graph";
    match
      Flownet.Path.of_parents g ~parent:r.Flownet.Bellman_ford.parent ~src ~dst
    with
    | None -> continue_ := false
    | Some p ->
        let d = p.Flownet.Path.bottleneck in
        let c = Flownet.Path.cost g p in
        Flownet.Path.augment g p d;
        flow := !flow + d;
        cost := !cost + (d * c)
  done;
  (!flow, !cost)
