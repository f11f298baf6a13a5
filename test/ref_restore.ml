(* Reference restore for the rollback property: the transaction snapshot
   that [Cluster.mark]/[Cluster.rollback] replaced. [snapshot] copies every
   placement before a batch; [restore] empties the cluster and re-places
   the copy with [~force:true], calling [on_drop] for each container it
   cannot re-place. It costs O(cluster) per batch but is plainly right
   about what the cluster held at the snapshot. *)

let snapshot cluster =
  List.filter_map
    (fun (cid, mid) ->
      Option.map (fun c -> (c, mid)) (Cluster.container cluster cid))
    (Cluster.placements cluster)

let restore ~on_drop cluster snap =
  Cluster.reset cluster;
  List.iter
    (fun (c, mid) ->
      match Cluster.place ~force:true cluster c mid with
      | Ok () -> ()
      | Error _ -> on_drop ())
    snap
