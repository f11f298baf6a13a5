type t = {
  cluster : Cluster.t;
  batch : Container.t array;
  by_app : (Application.id, int list) Hashtbl.t; (* batch indices, in order *)
  apps : Application.id list;
}

let build cluster batch =
  let by_app = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Container.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_app c.Container.app) in
      Hashtbl.replace by_app c.Container.app (i :: cur))
    batch;
  let apps =
    Hashtbl.fold (fun app _ acc -> app :: acc) by_app []
    |> List.sort Int.compare
  in
  Hashtbl.iter (fun app l -> Hashtbl.replace by_app app (List.rev l)) by_app;
  { cluster; batch; by_app; apps }

let cluster t = t.cluster
let batch t = t.batch
let app_ids t = t.apps

let container_indices_of_app t app =
  Option.value ~default:[] (Hashtbl.find_opt t.by_app app)

let tiers t =
  let topo = Cluster.topology t.cluster in
  ( Array.length t.batch,
    List.length t.apps,
    Topology.n_groups topo,
    Topology.n_racks topo,
    Topology.n_machines topo )

let n_vertices t =
  let nt, na, ng, nr, nn = tiers t in
  2 + nt + na + ng + nr + nn

let n_edges t =
  let nt, na, ng, nr, nn = tiers t in
  (* s→T, T→A, A→G (full bipartite between tiers), G→R, R→N, N→t *)
  nt + nt + (na * ng) + nr + nn + nn

let naive_edges t =
  let nt, _, _, _, nn = tiers t in
  nt * nn

let to_dot t =
  let buf = Buffer.create 4096 in
  let topo = Cluster.topology t.cluster in
  Buffer.add_string buf "digraph aladdin {\n  rankdir=LR;\n  s [shape=circle];\n  t [shape=circle];\n";
  List.iter
    (fun app ->
      let n = List.length (container_indices_of_app t app) in
      Buffer.add_string buf
        (Printf.sprintf
           "  A%d [shape=box,label=\"A%d (%d ctrs)\"];\n  s -> A%d [label=\"%d\"];\n"
           app app n app n))
    t.apps;
  for k = 0 to Topology.n_groups topo - 1 do
    Buffer.add_string buf (Printf.sprintf "  G%d [shape=diamond];\n" k);
    List.iter
      (fun app -> Buffer.add_string buf (Printf.sprintf "  A%d -> G%d;\n" app k))
      t.apps;
    List.iter
      (fun r ->
        Buffer.add_string buf (Printf.sprintf "  R%d [shape=diamond];\n" r);
        Buffer.add_string buf (Printf.sprintf "  G%d -> R%d;\n" k r);
        List.iter
          (fun m ->
            let free =
              Resource.to_string (Machine.free (Cluster.machine t.cluster m))
            in
            Buffer.add_string buf
              (Printf.sprintf
                 "  N%d [shape=box,style=rounded];\n  R%d -> N%d;\n  N%d -> t [label=\"%s\"];\n"
                 m r m m free))
          (Topology.machines_of_rack topo r))
      (Topology.racks_of_group topo k)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
