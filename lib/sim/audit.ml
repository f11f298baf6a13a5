(* Post-batch invariant auditor. Every invariant is re-derived from first
   principles — machine container lists, raw demand vectors, the
   constraint set — rather than trusting the incrementally maintained
   bookkeeping (free vectors, per-machine app counts) the schedulers
   themselves use, so a bug or an injected fault in that bookkeeping is
   caught one batch after it lands instead of corrupting the rest of the
   run. *)

type violation =
  | Capacity_overrun of { machine : Machine.id; container : Container.t }
  | Anti_affinity of {
      machine : Machine.id;
      container : Container.t;
      conflict : Application.id;
    }
  | Offline_placement of { machine : Machine.id; container : Container.t }
  | Lost_container of { container : Container.t }
  | Priority_inversion of {
      machine : Machine.id;
      blocked : Container.t;
      victim : Container.t;
    }

let pp_violation ppf = function
  | Capacity_overrun { machine; container } ->
      Format.fprintf ppf "capacity overrun: container %d on machine %d"
        container.Container.id machine
  | Anti_affinity { machine; container; conflict } ->
      Format.fprintf ppf
        "anti-affinity: container %d (app %d) on machine %d conflicts with \
         app %d"
        container.Container.id container.Container.app machine conflict
  | Offline_placement { machine; container } ->
      Format.fprintf ppf "offline placement: container %d on machine %d"
        container.Container.id machine
  | Lost_container { container } ->
      Format.fprintf ppf "lost container: %d neither placed nor undeployed"
        container.Container.id
  | Priority_inversion { machine; blocked; victim } ->
      Format.fprintf ppf
        "priority inversion: container %d (prio %d) undeployed while %d \
         (prio %d) holds machine %d it fits on"
        blocked.Container.id blocked.Container.priority victim.Container.id
        victim.Container.priority machine

let c_batches = Obs.counter "audit.batches"
let c_violations = Obs.counter "audit.violations"
let c_repairs = Obs.counter "audit.repairs"
let c_unrepaired = Obs.counter "audit.unrepaired"

(* Victim order for evictions: lowest priority goes first; ties evict the
   latest id so earlier containers keep their seats deterministically. *)
let victim_order (a : Container.t) (b : Container.t) =
  match compare a.Container.priority b.Container.priority with
  | 0 -> compare b.Container.id a.Container.id
  | c -> c

let check cluster ~batch ~(outcome : Scheduler.outcome) =
  let cs = Cluster.constraints cluster in
  let nm = Cluster.n_machines cluster in
  let viols = ref [] in
  let add v = viols := v :: !viols in
  for mid = 0 to nm - 1 do
    let m = Cluster.machine cluster mid in
    let cts = Machine.containers m in
    if cts <> [] then
      if Cluster.is_offline cluster mid then
        List.iter
          (fun c -> add (Offline_placement { machine = mid; container = c }))
          cts
      else begin
        (* Anti-affinity (both anti-within and across-app): keep a maximal
           conflict-free subset, highest priority first; the rest are
           violations. Conflict is re-tested pairwise through the
           constraint set, not through the cluster's app counts. *)
        let order = List.sort victim_order (List.rev cts) in
        (* victim_order ascending = worst first; keep from the back *)
        let keep = ref [] in
        let victims = ref [] in
        List.iter
          (fun (c : Container.t) ->
            match
              List.find_opt
                (fun (k : Container.t) ->
                  Constraint_set.conflict cs c.Container.app k.Container.app)
                !keep
            with
            | Some k ->
                victims :=
                  Anti_affinity
                    { machine = mid; container = c; conflict = k.Container.app }
                  :: !victims
            | None -> keep := c :: !keep)
          (List.rev order);
        List.iter add !victims;
        (* Capacity: raw demand sums against raw capacity, per dimension. *)
        let cap = Resource.to_array (Machine.capacity m) in
        let used = Array.make (Array.length cap) 0 in
        let add_demand sign (c : Container.t) =
          Array.iteri
            (fun d x -> used.(d) <- used.(d) + (sign * x))
            (Resource.to_array c.Container.demand)
        in
        List.iter (add_demand 1) cts;
        let over () =
          let o = ref false in
          Array.iteri (fun d u -> if u > cap.(d) then o := true) used;
          !o
        in
        if over () then
          List.iter
            (fun c ->
              if over () then begin
                add_demand (-1) c;
                add (Capacity_overrun { machine = mid; container = c })
              end)
            (List.sort victim_order cts)
      end
  done;
  (* Conservation: every batch container is accounted for exactly once —
     placed on a live machine or reported undeployed. *)
  let undep = Hashtbl.create 64 in
  List.iter
    (fun (c : Container.t) -> Hashtbl.replace undep c.Container.id ())
    outcome.Scheduler.undeployed;
  Array.iter
    (fun (c : Container.t) ->
      if
        Cluster.machine_of cluster c.Container.id = None
        && not (Hashtbl.mem undep c.Container.id)
      then add (Lost_container { container = c }))
    batch;
  (* Batch-scoped priority inversion: an undeployed batch container that
     would fit (capacity and affinity re-derived) on the machine of a
     strictly lower-priority batch container placed this batch. *)
  let batch_ids = Hashtbl.create 64 in
  Array.iter
    (fun (c : Container.t) -> Hashtbl.replace batch_ids c.Container.id ())
    batch;
  let placed_batch =
    List.filter_map
      (fun (cid, _) ->
        if Hashtbl.mem batch_ids cid then Cluster.container cluster cid
        else None)
      outcome.Scheduler.placed
  in
  List.iter
    (fun (u : Container.t) ->
      if
        Hashtbl.mem batch_ids u.Container.id
        && Cluster.machine_of cluster u.Container.id = None
      then
        let found = ref None in
        List.iter
          (fun (p : Container.t) ->
            if !found = None && p.Container.priority < u.Container.priority
            then
              match Cluster.machine_of cluster p.Container.id with
              | Some mid when not (Cluster.is_offline cluster mid) ->
                  let m = Cluster.machine cluster mid in
                  let free_after =
                    Resource.add (Machine.free m) p.Container.demand
                  in
                  let conflict_free =
                    List.for_all
                      (fun (b : Container.t) ->
                        b.Container.id = p.Container.id
                        || not
                             (Constraint_set.conflict cs u.Container.app
                                b.Container.app))
                      (Machine.containers m)
                  in
                  if
                    Resource.fits ~demand:u.Container.demand ~within:free_after
                    && conflict_free
                  then found := Some (mid, p)
              | _ -> ())
          placed_batch;
        match !found with
        | Some (mid, p) ->
            add (Priority_inversion { machine = mid; blocked = u; victim = p })
        | None -> ())
    outcome.Scheduler.undeployed;
  List.rev !viols

let default_place cluster (c : Container.t) =
  let nm = Cluster.n_machines cluster in
  let rec go mid =
    if mid >= nm then None
    else if Cluster.admissible cluster c mid = Ok () then Some mid
    else go (mid + 1)
  in
  go 0

(* One repair sweep over a violation list: quarantine (evict) every
   violating placement, then try to re-place the evictee through [place].
   Containers that cannot be re-placed are returned as displaced — the
   caller reports them undeployed, which itself restores the conservation
   invariant. *)
let repair ?(place = default_place) cluster viols =
  let displaced = ref [] in
  let replace (c : Container.t) =
    match place cluster c with
    | Some mid -> Cluster.place cluster c mid = Ok ()
    | None -> false
  in
  let evict_and_replace (c : Container.t) =
    (match Cluster.machine_of cluster c.Container.id with
    | Some _ -> Cluster.remove cluster c.Container.id
    | None -> ());
    if not (replace c) then displaced := c :: !displaced
  in
  List.iter
    (fun v ->
      Obs.incr c_repairs;
      match v with
      | Capacity_overrun { container; _ }
      | Anti_affinity { container; _ }
      | Offline_placement { container; _ } ->
          evict_and_replace container
      | Lost_container { container } ->
          if not (replace container) then displaced := container :: !displaced
      | Priority_inversion { machine; blocked; victim } ->
          if
            Cluster.machine_of cluster victim.Container.id = Some machine
            && Cluster.machine_of cluster blocked.Container.id = None
          then begin
            Cluster.remove cluster victim.Container.id;
            (match Cluster.place cluster blocked machine with
            | Ok () -> ()
            | Error _ ->
                (* the slot was re-derived as admissible; if it is not,
                   put the victim back rather than lose both *)
                ignore (Cluster.place cluster victim machine));
            if Cluster.machine_of cluster victim.Container.id = None then
              evict_and_replace victim
          end)
    viols;
  !displaced

(* Outcome re-derived from post-repair cluster state: batch containers
   currently placed, everything else (plus non-batch evictees that found
   no new seat) undeployed. *)
let amend cluster ~batch ~displaced (outcome : Scheduler.outcome) =
  let placed = ref [] and undeployed = ref [] in
  Array.iter
    (fun (c : Container.t) ->
      match Cluster.machine_of cluster c.Container.id with
      | Some mid -> placed := (c.Container.id, mid) :: !placed
      | None -> undeployed := c :: !undeployed)
    batch;
  let batch_ids = Hashtbl.create 64 in
  Array.iter
    (fun (c : Container.t) -> Hashtbl.replace batch_ids c.Container.id ())
    batch;
  let extra =
    List.filter
      (fun (c : Container.t) ->
        (not (Hashtbl.mem batch_ids c.Container.id))
        && Cluster.machine_of cluster c.Container.id = None)
      displaced
  in
  {
    outcome with
    Scheduler.placed = List.rev !placed;
    undeployed = List.rev !undeployed @ extra;
  }

let run ?(max_passes = 3) ?place cluster ~batch ~outcome =
  Obs.incr c_batches;
  let displaced = ref [] in
  let outcome = ref outcome in
  let remaining = ref (check cluster ~batch ~outcome:!outcome) in
  let pass = ref 0 in
  while !remaining <> [] && !pass < max_passes do
    incr pass;
    Obs.add c_violations (List.length !remaining);
    let d = repair ?place cluster !remaining in
    displaced := d @ !displaced;
    outcome := amend cluster ~batch ~displaced:!displaced !outcome;
    remaining := check cluster ~batch ~outcome:!outcome
  done;
  Obs.add c_unrepaired (List.length !remaining);
  (!outcome, !remaining)

let wrap ?max_passes ?place t =
  {
    t with
    Scheduler.schedule =
      (fun cluster batch ->
        let o = t.Scheduler.schedule cluster batch in
        fst (run ?max_passes ?place cluster ~batch ~outcome:o));
  }
