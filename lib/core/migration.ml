type move = {
  container : Container.t;
  from_machine : Machine.id;
  to_machine : Machine.id;
}

type migration_plan = { target : Machine.id; moves : move list }

(* Deployed containers on [mid] whose app conflicts with [app]. *)
let blockers cluster app mid =
  let cs = Cluster.constraints cluster in
  List.filter
    (fun (b : Container.t) -> Constraint_set.conflict cs app b.Container.app)
    (Machine.containers (Cluster.machine cluster mid))

(* Per-call index of admissible machines. Admission depends on a
   container's app and demand only, so one entry per (app, demand) holds
   the ascending machines that admitted it when the migration call began.
   Every plan that fails restores the cluster (moves rolled back, a failed
   relocation put back), so between plans the entries stay exact. Inside
   a plan, placements only take admissibility away from machines other
   than the source, which is never a target: an entry is then a superset
   of the admissible machines, and re-checking its members in order finds
   the machine a full scan would. Entries must therefore be filled while
   the cluster is in its call-start state — before a plan's first move. *)
type index = {
  cluster : Cluster.t;
  max_free : Resource.t option;
      (** per dimension, the largest free amount of any online machine;
          [None] when every machine is offline *)
  entries : (Application.id * Resource.t, Machine.id list) Hashtbl.t;
}

let index_create cluster =
  let max_free = ref None in
  Array.iteri
    (fun mid m ->
      if not (Cluster.is_offline cluster mid) then
        let free = Resource.to_array (Machine.free m) in
        match !max_free with
        | None -> max_free := Some free
        | Some acc -> Array.iteri (fun d x -> acc.(d) <- max acc.(d) x) free)
    (Cluster.machines cluster);
  {
    cluster;
    max_free = Option.map Resource.of_array !max_free;
    entries = Hashtbl.create 16;
  }

(* Machines admitting [b]'s app and demand, ascending, as of call start. A
   demand above the largest free amount in some dimension fits nowhere,
   which on a full cluster answers most entries without a scan. *)
let targets idx (b : Container.t) =
  let key = (b.Container.app, b.Container.demand) in
  match Hashtbl.find_opt idx.entries key with
  | Some l -> l
  | None ->
      let l =
        match idx.max_free with
        | Some within when Resource.fits ~demand:b.Container.demand ~within ->
            let rec scan mid acc =
              if mid < 0 then acc
              else if Cluster.admissible idx.cluster b mid = Ok () then
                scan (mid - 1) (mid :: acc)
              else scan (mid - 1) acc
            in
            scan (Cluster.n_machines idx.cluster - 1) []
        | _ -> []
      in
      Hashtbl.add idx.entries key l;
      l

(* Try to move [b] to the first machine of [candidates] (its index entry)
   that admits it now, other than [forbidden]. The container is removed
   first so its own blacklist entries don't block the re-placement. *)
let relocate cluster (b : Container.t) candidates ~forbidden =
  Cluster.remove cluster b.Container.id;
  let rec scan = function
    | [] -> None
    | mid :: rest ->
        if mid <> forbidden && Cluster.admissible cluster b mid = Ok () then
          match Cluster.place cluster b mid with
          | Ok () -> Some mid
          | Error _ ->
              (* Admissible but denied: the machine changed between the
                 check and the placement — keep scanning, another machine
                 may do. *)
              scan rest
        else scan rest
  in
  match scan candidates with
  | Some mid -> Some mid
  | None ->
      (* Roll back: put it where it was. The spot was just vacated, so only
         a cluster corrupted under our feet can deny this — typed error so
         the batch driver can reject and restore. *)
      (match Cluster.place ~force:true cluster b forbidden with
      | Ok () -> ()
      | Error _ ->
          Aladdin_error.raise_error
            (Aladdin_error.Placement_failed
               { container = b.Container.id; machine = forbidden }));
      None

(* Victims whose departure makes [c] admissible on [mid]: every deployed
   container whose app conflicts with [c]'s, plus — when capacity is still
   short — the largest non-conflicting containers until the demand fits
   (Fig. 7 shows exactly this rescheduling-for-capacity case). *)
let victim_set idx (c : Container.t) mid ~max_moves =
  let cluster = idx.cluster in
  let m = Cluster.machine cluster mid in
  let conflicting = blockers cluster c.Container.app mid in
  let freed =
    List.fold_left
      (fun acc (b : Container.t) -> Resource.add acc b.Container.demand)
      (Machine.free m) conflicting
  in
  if Resource.fits ~demand:c.Container.demand ~within:freed then
    if List.length conflicting <= max_moves && conflicting <> [] then
      Some conflicting
    else None
  else begin
    (* Prefer victims that have somewhere to go: a candidate with no
       admissible target elsewhere would doom the whole plan. *)
    let has_target b = List.exists (fun i -> i <> mid) (targets idx b) in
    let others =
      List.filter
        (fun (b : Container.t) ->
          not
            (List.exists
               (fun (b' : Container.t) -> b'.Container.id = b.Container.id)
               conflicting))
        (Machine.containers m)
      |> List.map (fun b -> (has_target b, b))
      |> List.sort (fun (r1, (a : Container.t)) (r2, (b : Container.t)) ->
             match Bool.compare r2 r1 with
             | 0 -> Resource.compare b.Container.demand a.Container.demand
             | c -> c)
      |> List.map snd
    in
    let rec extend freed acc n = function
      | [] -> None
      | (b : Container.t) :: rest ->
          if n >= max_moves then None
          else begin
            let freed = Resource.add freed b.Container.demand in
            let acc = b :: acc in
            if Resource.fits ~demand:c.Container.demand ~within:freed then
              Some (conflicting @ List.rev acc)
            else extend freed acc (n + 1) rest
          end
    in
    extend freed [] (List.length conflicting) others
  end

let rollback cluster moves =
  List.iter
    (fun mv ->
      Cluster.remove cluster mv.container.Container.id;
      match Cluster.place ~force:true cluster mv.container mv.from_machine with
      | Ok () -> ()
      | Error _ ->
          (* The move's source slot was freed by the move itself, so a
             denial here means the cluster is inconsistent — typed error,
             handled by the batch-level restore. *)
          Aladdin_error.raise_error
            (Aladdin_error.Placement_failed
               {
                 container = mv.container.Container.id;
                 machine = mv.from_machine;
               }))
    moves

let try_machine idx (c : Container.t) mid ~max_moves =
  let cluster = idx.cluster in
  match Cluster.admissible cluster c mid with
  | Ok () -> Some { target = mid; moves = [] } (* nothing to do *)
  | Error (Cluster.No_capacity | Cluster.Blacklisted _) -> (
      match victim_set idx c mid ~max_moves with
      | None -> None
      | Some victims ->
          (* Look every victim's targets up now, while the cluster is still
             as the call found it: the first move would otherwise leak into
             an entry filled later (conflict-only victim sets reach here
             without [has_target] having filled them). *)
          let victims = List.map (fun b -> (b, targets idx b)) victims in
          let rec move_all done_moves = function
            | [] -> Some done_moves
            | (b, candidates) :: rest -> (
                match relocate cluster b candidates ~forbidden:mid with
                | Some dst ->
                    move_all
                      ({ container = b; from_machine = mid; to_machine = dst }
                       :: done_moves)
                      rest
                | None ->
                    rollback cluster done_moves;
                    None)
          in
          (match move_all [] victims with
          | Some moves when Cluster.admissible cluster c mid = Ok () ->
              Some { target = mid; moves = List.rev moves }
          | Some moves ->
              rollback cluster moves;
              None
          | None -> None))

let find_and_apply_migration cluster c ~max_moves =
  let n = Cluster.n_machines cluster in
  let idx = index_create cluster in
  let rec scan mid =
    if mid >= n then None
    else if Cluster.is_offline cluster mid then scan (mid + 1)
    else
      match try_machine idx c mid ~max_moves with
      | Some plan when plan.moves <> [] -> Some plan
      | Some plan ->
          (* No moves needed means the machine was admissible all along;
             treat as a trivial plan. *)
          Some plan
      | None -> scan (mid + 1)
  in
  scan 0

type preemption_plan = {
  target_machine : Machine.id;
  evicted : Container.t list;
}

let find_and_apply_preemption cluster weights (c : Container.t) =
  let cs = Cluster.constraints cluster in
  let n = Cluster.n_machines cluster in
  (* [mid]'s eviction list, or [None]. The list can only replace the best
     so far if it is shorter ([bound]; ties keep the earlier machine), so a
     machine whose conflicting set alone reaches [bound] is skipped before
     its sort. *)
  let candidate mid ~bound =
    let m = Cluster.machine cluster mid in
    let deployed = Machine.containers m in
    let conflicting, others =
      List.partition
        (fun (b : Container.t) ->
          Constraint_set.conflict cs c.Container.app b.Container.app)
        deployed
    in
    (* Strictly lower priority *class* only: weights are batch-relative, so
       the class comparison is what keeps deployed high-priority containers
       safe from later low-priority batches (Fig. 3(a)). *)
    let evictable (b : Container.t) =
      b.Container.priority < c.Container.priority
    in
    let n_base = List.length conflicting in
    if n_base >= bound || not (List.for_all evictable conflicting) then None
    else begin
      (* Evict all conflicting, then the smallest-weight others until the
         demand fits. *)
      let base_evict = conflicting in
      let freed =
        List.fold_left
          (fun acc (b : Container.t) -> Resource.add acc b.Container.demand)
          (Machine.free m) base_evict
      in
      if Resource.fits ~demand:c.Container.demand ~within:freed then
        Some base_evict
      else if n_base + 1 >= bound then None
      else begin
        (* Each key computed once; the sort is stable, so equal keys keep
           the machine's container order. *)
        let sorted =
          List.filter_map
            (fun b ->
              if evictable b then
                Some (Weights.weighted_magnitude weights b, b)
              else None)
            others
          |> List.stable_sort (fun (ka, _) (kb, _) -> Int.compare ka kb)
        in
        let rec extend freed acc = function
          | [] -> None
          | (_, (b : Container.t)) :: rest ->
              let freed = Resource.add freed b.Container.demand in
              let acc = b :: acc in
              if Resource.fits ~demand:c.Container.demand ~within:freed then
                Some (base_evict @ List.rev acc)
              else extend freed acc rest
        in
        extend freed [] sorted
      end
    end
  in
  let best = ref None and bound = ref max_int in
  for mid = 0 to n - 1 do
    (* Offline machines admit nothing: a drained one would otherwise win
       with zero evictions and then fail the admission check below. *)
    if not (Cluster.is_offline cluster mid) then
      match candidate mid ~bound:!bound with
      | Some ev when List.length ev < !bound ->
          best := Some (mid, ev);
          bound := List.length ev
      | _ -> ()
  done;
  match !best with
  | None -> None
  | Some (mid, evicted) ->
      List.iter (fun (b : Container.t) -> Cluster.remove cluster b.Container.id) evicted;
      (match Cluster.admissible cluster c mid with
      | Ok () -> Some { target_machine = mid; evicted }
      | Error _ ->
          (* The victim-set arithmetic said the evictions would make [c]
             admissible; if the cluster disagrees, undo the evictions and
             report no plan rather than crash mid-batch. *)
          List.iter
            (fun (b : Container.t) ->
              match Cluster.place ~force:true cluster b mid with
              | Ok () -> ()
              | Error _ ->
                  Aladdin_error.raise_error
                    (Aladdin_error.Placement_failed
                       { container = b.Container.id; machine = mid }))
            evicted;
          None)

(* Audit repair policy: find a seat for a container the invariant auditor
   evicted from a violating placement. Direct admission first; failing
   that, a bounded migration chain opens one. The auditor itself places
   the container on the returned machine, mirroring the scheduler's
   find-then-place split. *)
let repair_placement ?(max_moves = 4) cluster (c : Container.t) =
  let nm = Cluster.n_machines cluster in
  let rec direct mid =
    if mid >= nm then None
    else if Cluster.admissible cluster c mid = Ok () then Some mid
    else direct (mid + 1)
  in
  match direct 0 with
  | Some mid -> Some mid
  | None ->
      Option.map
        (fun plan -> plan.target)
        (find_and_apply_migration cluster c ~max_moves)
