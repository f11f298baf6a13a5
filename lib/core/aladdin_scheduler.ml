type options = {
  il : bool;
  dl : bool;
  weight_base : int option;
  migration : bool;
  preemption : bool;
  max_moves : int;
  max_requeues : int;
  gang : bool;
}

let default_options =
  {
    il = true;
    dl = true;
    weight_base = None;
    migration = true;
    preemption = true;
    max_moves = 8;
    max_requeues = 4;
    gang = false;
  }

let plain = { default_options with il = false; dl = false }
let with_il = { default_options with il = true; dl = false }

let name_of_options o =
  let opt =
    match (o.il, o.dl) with
    | false, false -> ""
    | true, false -> "+IL"
    | false, true -> "+DL"
    | true, true -> "+IL+DL"
  in
  let base =
    match o.weight_base with Some b -> Printf.sprintf "(%d)" b | None -> ""
  in
  "Aladdin" ^ opt ^ base

let c_stuck_skips = Obs.counter "aladdin.stuck_skips"
let last_stats : Search.stats option ref = ref None
let last_search_stats () = !last_stats

(* [carry] holds the search of the last batch and the cluster it ran on:
   the next batch on the same cluster (physically) refreshes it, which
   reseeds it from the cluster exactly as a fresh create would. *)
let search_for carry options fg cluster =
  match !carry with
  | Some (cl, s) when cl == cluster ->
      Search.refresh s fg;
      s
  | _ ->
      let s = Search.create ~il:options.il ~dl:options.dl fg in
      carry := Some (cluster, s);
      s

let schedule_batch ~carry options cluster batch =
  let fg = Flow_graph.build cluster batch in
  let search = search_for carry options fg cluster in
  let capacity = Topology.capacity (Cluster.topology cluster) 0 in
  let weights =
    match options.weight_base with
    | Some base -> Weights.fixed ~base batch ~capacity
    | None -> Weights.compute batch ~capacity
  in
  (* Eq. 9: augment heavier weighted flows first; ties in arrival order.
     Each key is computed once; the comparisons, and so the permutation,
     are those of sorting the containers by key directly. *)
  let order =
    Array.map (fun c -> (Weights.weighted_magnitude weights c, c)) batch
  in
  Array.sort
    (fun (ka, a) (kb, b) ->
      match Int.compare kb ka with
      | 0 -> Container.compare_by_arrival a b
      | c -> c)
    order;
  let queue = Queue.create () in
  Array.iter (fun (_, c) -> Queue.push c queue) order;
  let requeue_count : (Container.id, int) Hashtbl.t = Hashtbl.create 64 in
  (* Stuck memo: (app, demand, priority) -> the cluster version at which
     both planners last failed for that key. A failed plan of either
     planner leaves the cluster untouched, and both read only the
     cluster, the key, the batch's weights and the options; any place,
     remove or offline bumps the version. So a container that misses in
     search while its key maps to the current version would fail both
     planners again, and goes undeployed without calling them. *)
  let stuck = Hashtbl.create 16 in
  let stuck_key (c : Container.t) = (c.app, c.demand, c.priority) in
  let undeployed = ref [] in
  let migrations = ref 0 in
  let preemptions = ref 0 in
  let rounds = ref 0 in
  while not (Queue.is_empty queue) do
    incr rounds;
    (* Cooperative deadline at round granularity: the search descent has
       no solver hot loop of its own to tick (the planners tick once per
       machine they try), and rounds are coarse enough to sample the wall
       clock every time. Expired is deliberately NOT in [recoverable], so
       it passes through the batch transaction to the ladder middleware. *)
    Flownet.Deadline.check_ambient "aladdin.schedule_batch";
    let c = Queue.pop queue in
    (* Fault-harness probe: a solver-step failure mid-batch, after some
       containers have already been placed — exactly the state the
       batch-level restore has to unwind. No-op unless a Fault config is
       installed. *)
    Fault.trip_solver_step "aladdin.schedule_batch";
    let place_on mid =
      (match Cluster.place cluster c mid with
      | Ok () -> ()
      | Error _ ->
          (* The search said this machine admits [c]; a denial means the
             cluster diverged from the search state — typed error, the
             batch wrapper rolls back and rejects the batch. *)
          Aladdin_error.raise_error
            (Aladdin_error.Placement_failed
               { container = c.Container.id; machine = mid }));
      Search.note_placement search mid
    in
    match Search.find_machine search c with
    | Some mid -> place_on mid
    | None
      when Hashtbl.find_opt stuck (stuck_key c)
           = Some (Cluster.version cluster) ->
        Obs.incr c_stuck_skips;
        undeployed := c :: !undeployed
    | None -> (
        let migrated =
          if options.migration then
            match
              Migration.find_and_apply_migration cluster c
                ~max_moves:options.max_moves
            with
            | Some plan ->
                migrations := !migrations + List.length plan.Migration.moves;
                Search.invalidate search;
                List.iter
                  (fun mv -> Search.note_placement search mv.Migration.to_machine)
                  plan.Migration.moves;
                place_on plan.Migration.target;
                true
            | None -> false
          else false
        in
        if not migrated then
          let preempted =
            if options.preemption then
              match Migration.find_and_apply_preemption cluster weights c with
              | Some plan ->
                  preemptions :=
                    !preemptions + List.length plan.Migration.evicted;
                  Search.invalidate search;
                  place_on plan.Migration.target_machine;
                  (* Re-queue the evicted containers (bounded per victim). *)
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
                    plan.Migration.evicted;
                  true
              | None -> false
            else false
          in
          if not preempted then begin
            Hashtbl.replace stuck (stuck_key c) (Cluster.version cluster);
            undeployed := c :: !undeployed
          end)
  done;
  (* A copy: a carried search reuses its record for the next batch. *)
  let st = Search.stats search in
  last_stats :=
    Some
      {
        Search.paths_explored = st.paths_explored;
        il_skips = st.il_skips;
        dl_cuts = st.dl_cuts;
      };
  (* Gang semantics: an app with any undeployed batch container loses its
     whole batch (partial LLAs are useless to gang workloads). *)
  if options.gang && !undeployed <> [] then begin
    let failed_apps = Hashtbl.create 8 in
    List.iter
      (fun (c : Container.t) -> Hashtbl.replace failed_apps c.Container.app ())
      !undeployed;
    Array.iter
      (fun (c : Container.t) ->
        if
          Hashtbl.mem failed_apps c.Container.app
          && Cluster.machine_of cluster c.Container.id <> None
        then begin
          Cluster.remove cluster c.Container.id;
          undeployed := c :: !undeployed
        end)
      batch
  end;
  let placed =
    Array.to_list batch
    |> List.filter_map (fun (c : Container.t) ->
           match Cluster.machine_of cluster c.Container.id with
           | Some mid -> Some (c.Container.id, mid)
           | None -> None)
  in
  {
    Scheduler.placed;
    undeployed = List.rev !undeployed;
    violations = [];
    migrations = !migrations;
    preemptions = !preemptions;
    rounds = !rounds;
  }

let schedule_raw options cluster batch =
  schedule_batch ~carry:(ref None) options cluster batch

(* ---- Batch-level recovery -------------------------------------------- *)

(* Everything the scheduler can recover from travels as one of these two
   exceptions; anything else (Out_of_memory, a genuine bug) propagates. *)
let recoverable = function
  | Aladdin_error.E _ -> true
  | e -> Scheduler.faults_recoverable e

(* Mark/rollback, rejection and batch obs come from the scheduler
   middleware. A rejected batch leaves nothing stale behind: the next
   batch's refresh reseeds the search from the rolled-back cluster. *)
let make ?(options = default_options) () =
  let carry = ref None in
  {
    Scheduler.name = name_of_options options;
    schedule = (fun cluster batch -> schedule_batch ~carry options cluster batch);
  }
  |> Scheduler.with_transaction ~prefix:"aladdin" ~recoverable
  |> Scheduler.with_obs ~prefix:"aladdin"
