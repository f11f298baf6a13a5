(* Reference batch loop for the differential suite: the body of
   [Aladdin.Aladdin_scheduler.schedule_raw] without its stuck memo, so
   every container that misses in search calls the migration planner and
   then the preemption planner, even when an identical container already
   failed both on the same cluster state. A fresh search per call, the
   same planners, the same ordering and requeue rules; gang semantics are
   left out. *)

module A = Aladdin

let schedule_raw (options : A.Aladdin_scheduler.options) cluster batch =
  if options.gang then invalid_arg "Ref_schedule: gang is not modelled";
  let fg = A.Flow_graph.build cluster batch in
  let search = A.Search.create ~il:options.il ~dl:options.dl fg in
  let capacity = Topology.capacity (Cluster.topology cluster) 0 in
  let weights =
    match options.weight_base with
    | Some base -> A.Weights.fixed ~base batch ~capacity
    | None -> A.Weights.compute batch ~capacity
  in
  let order = Array.copy batch in
  Array.sort
    (fun a b ->
      match
        Int.compare
          (A.Weights.weighted_magnitude weights b)
          (A.Weights.weighted_magnitude weights a)
      with
      | 0 -> Container.compare_by_arrival a b
      | c -> c)
    order;
  let queue = Queue.of_seq (Array.to_seq order) in
  let requeue_count = Hashtbl.create 64 in
  let undeployed = ref [] in
  let migrations = ref 0 and preemptions = ref 0 and rounds = ref 0 in
  let place_on (c : Container.t) mid =
    if Cluster.place cluster c mid <> Ok () then
      failwith "Ref_schedule: planned machine denied the container";
    A.Search.note_placement search mid
  in
  while not (Queue.is_empty queue) do
    incr rounds;
    let c = Queue.pop queue in
    match A.Search.find_machine search c with
    | Some mid -> place_on c mid
    | None -> (
        let migrated =
          options.migration
          &&
          match
            A.Migration.find_and_apply_migration cluster c
              ~max_moves:options.max_moves
          with
          | Some plan ->
              migrations := !migrations + List.length plan.A.Migration.moves;
              A.Search.invalidate search;
              List.iter
                (fun mv -> A.Search.note_placement search mv.A.Migration.to_machine)
                plan.A.Migration.moves;
              place_on c plan.A.Migration.target;
              true
          | None -> false
        in
        if not migrated then
          let preempted =
            options.preemption
            &&
            match A.Migration.find_and_apply_preemption cluster weights c with
            | Some plan ->
                preemptions := !preemptions + List.length plan.A.Migration.evicted;
                A.Search.invalidate search;
                place_on c plan.A.Migration.target_machine;
                List.iter
                  (fun (ev : Container.t) ->
                    let n =
                      1
                      + Option.value ~default:0
                          (Hashtbl.find_opt requeue_count ev.Container.id)
                    in
                    Hashtbl.replace requeue_count ev.Container.id n;
                    if n <= options.max_requeues then Queue.push ev queue
                    else undeployed := ev :: !undeployed)
                  plan.A.Migration.evicted;
                true
            | None -> false
          in
          if not preempted then undeployed := c :: !undeployed)
  done;
  {
    Scheduler.placed =
      Array.to_list batch
      |> List.filter_map (fun (c : Container.t) ->
             Option.map
               (fun mid -> (c.Container.id, mid))
               (Cluster.machine_of cluster c.Container.id));
    undeployed = List.rev !undeployed;
    violations = [];
    migrations = !migrations;
    preemptions = !preemptions;
    rounds = !rounds;
  }
