(* Reference migration and preemption planners for the differential
   suite: the machine-by-machine scan that [Aladdin.Migration] replaced
   with its per-call index of admissible machines. Every victim's target
   search and every relocation here scans all machines, so it is slow but
   plainly right. The only change from the original scan is that both
   planners skip offline machines, as [Aladdin.Migration] does. Plans use
   [Aladdin.Migration]'s types so the two can be compared directly. *)

module M = Aladdin.Migration

(* Deployed containers on [mid] whose app conflicts with [app]. *)
let blockers cluster app mid =
  let cs = Cluster.constraints cluster in
  List.filter
    (fun (b : Container.t) -> Constraint_set.conflict cs app b.Container.app)
    (Machine.containers (Cluster.machine cluster mid))

(* Try to move [b] to any admissible machine other than [forbidden]. The
   container is removed first so its own app count doesn't block the
   re-placement scan. *)
let relocate cluster (b : Container.t) ~forbidden =
  Cluster.remove cluster b.Container.id;
  let n = Cluster.n_machines cluster in
  let rec scan mid =
    if mid >= n then None
    else if mid <> forbidden && Cluster.admissible cluster b mid = Ok () then
      match Cluster.place cluster b mid with
      | Ok () -> Some mid
      | Error _ ->
          (* Admissible but denied: the machine changed between the check
             and the placement — keep scanning, another machine may do. *)
          scan (mid + 1)
    else scan (mid + 1)
  in
  match scan 0 with
  | Some mid -> Some mid
  | None ->
      (* Roll back: put it where it was. The spot was just vacated, so only
         a cluster corrupted under our feet can deny this — typed error so
         the batch driver can reject and restore. *)
      (match Cluster.place ~force:true cluster b forbidden with
      | Ok () -> ()
      | Error _ ->
          Aladdin.Aladdin_error.raise_error
            (Aladdin.Aladdin_error.Placement_failed
               { container = b.Container.id; machine = forbidden }));
      None

(* Victims whose departure makes [c] admissible on [mid]: every deployed
   container whose app conflicts with [c]'s, plus — when capacity is still
   short — the largest non-conflicting containers until the demand fits
   (Fig. 7 shows exactly this rescheduling-for-capacity case). *)
let victim_set cluster (c : Container.t) mid ~max_moves =
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
    let has_target (b : Container.t) =
      let n = Cluster.n_machines cluster in
      let rec scan i =
        if i >= n then false
        else if i <> mid && Cluster.admissible cluster b i = Ok () then true
        else scan (i + 1)
      in
      scan 0
    in
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
      Cluster.remove cluster mv.M.container.Container.id;
      match
        Cluster.place ~force:true cluster mv.M.container mv.M.from_machine
      with
      | Ok () -> ()
      | Error _ ->
          (* The move's source slot was freed by the move itself, so a
             denial here means the cluster is inconsistent — typed error,
             handled by the batch-level restore. *)
          Aladdin.Aladdin_error.raise_error
            (Aladdin.Aladdin_error.Placement_failed
               {
                 container = mv.container.Container.id;
                 machine = mv.from_machine;
               }))
    moves

let try_machine cluster (c : Container.t) mid ~max_moves =
  match Cluster.admissible cluster c mid with
  | Ok () -> Some { M.target = mid; moves = [] } (* nothing to do *)
  | Error (Cluster.No_capacity | Cluster.Blacklisted _) -> (
      match victim_set cluster c mid ~max_moves with
      | None -> None
      | Some victims ->
          let rec move_all done_moves = function
            | [] -> Some done_moves
            | b :: rest -> (
                match relocate cluster b ~forbidden:mid with
                | Some dst ->
                    move_all
                      ({ M.container = b; from_machine = mid; to_machine = dst }
                       :: done_moves)
                      rest
                | None ->
                    rollback cluster done_moves;
                    None)
          in
          (match move_all [] victims with
          | Some moves when Cluster.admissible cluster c mid = Ok () ->
              Some { M.target = mid; moves = List.rev moves }
          | Some moves ->
              rollback cluster moves;
              None
          | None -> None))

let find_and_apply_migration cluster c ~max_moves =
  let n = Cluster.n_machines cluster in
  let rec scan mid =
    if mid >= n then None
    else if Cluster.is_offline cluster mid then scan (mid + 1)
    else
      match try_machine cluster c mid ~max_moves with
      | Some plan when plan.M.moves <> [] -> Some plan
      | Some plan ->
          (* No moves needed means the machine was admissible all along;
             treat as a trivial plan. *)
          Some plan
      | None -> scan (mid + 1)
  in
  scan 0

let find_and_apply_preemption cluster weights (c : Container.t) =
  let cs = Cluster.constraints cluster in
  let n = Cluster.n_machines cluster in
  let candidate mid =
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
    if not (List.for_all evictable conflicting) then None
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
        Some (mid, base_evict)
      else begin
        let sorted =
          List.sort
            (fun a b ->
              Int.compare
                (Aladdin.Weights.weighted_magnitude weights a)
                (Aladdin.Weights.weighted_magnitude weights b))
            (List.filter evictable others)
        in
        let rec extend freed acc = function
          | [] -> None
          | (b : Container.t) :: rest ->
              let freed = Resource.add freed b.Container.demand in
              let acc = b :: acc in
              if Resource.fits ~demand:c.Container.demand ~within:freed then
                Some (mid, base_evict @ List.rev acc)
              else extend freed acc rest
        in
        extend freed [] sorted
      end
    end
  in
  let best = ref None in
  for mid = 0 to n - 1 do
    if not (Cluster.is_offline cluster mid) then
      match candidate mid with
      | Some (m, ev) -> (
          match !best with
          | Some (_, best_ev) when List.length best_ev <= List.length ev -> ()
          | _ -> best := Some (m, ev))
      | None -> ()
  done;
  match !best with
  | None -> None
  | Some (mid, evicted) ->
      List.iter (fun (b : Container.t) -> Cluster.remove cluster b.Container.id) evicted;
      (match Cluster.admissible cluster c mid with
      | Ok () -> Some { M.target_machine = mid; evicted }
      | Error _ ->
          (* The victim-set arithmetic said the evictions would make [c]
             admissible; if the cluster disagrees, undo the evictions and
             report no plan rather than crash mid-batch. *)
          List.iter
            (fun (b : Container.t) ->
              match Cluster.place ~force:true cluster b mid with
              | Ok () -> ()
              | Error _ ->
                  Aladdin.Aladdin_error.raise_error
                    (Aladdin.Aladdin_error.Placement_failed
                       { container = b.Container.id; machine = mid }))
            evicted;
          None)
