type outcome = {
  placed : (Container.id * Machine.id) list;
  undeployed : Container.t list;
  violations : Violation.t list;
  migrations : int;
  preemptions : int;
  rounds : int;
}

type t = {
  name : string;
  schedule : Cluster.t -> Container.t array -> outcome;
}

let empty_outcome =
  {
    placed = [];
    undeployed = [];
    violations = [];
    migrations = 0;
    preemptions = 0;
    rounds = 0;
  }

let merge a b =
  {
    placed = a.placed @ b.placed;
    undeployed = a.undeployed @ b.undeployed;
    violations = a.violations @ b.violations;
    migrations = a.migrations + b.migrations;
    preemptions = a.preemptions + b.preemptions;
    rounds = a.rounds + b.rounds;
  }

let undeployed_count o = List.length o.undeployed

let reject_outcome batch = { empty_outcome with undeployed = Array.to_list batch }

(* ---- Middleware ------------------------------------------------------- *)
(* Combinators [t -> t] layering the cross-cutting concerns every scheduler
   wants — obs timing, fault-injection probes, transactional batches — so
   the schedulers themselves only implement placement. Conventional stack,
   innermost first: with_faults (probe inside the transaction, so a tripped
   batch is rejected, not crashed), with_transaction, with_obs. *)

let with_obs ~prefix t =
  let h_batch = Obs.histogram (prefix ^ ".batch_ns") in
  let c_batches = Obs.counter (prefix ^ ".batches") in
  let c_placed = Obs.counter (prefix ^ ".containers_placed") in
  let c_undeployed = Obs.counter (prefix ^ ".containers_undeployed") in
  let schedule cluster batch =
    Obs.incr c_batches;
    let t0 = Obs.now_ns () in
    let o = t.schedule cluster batch in
    Obs.observe_ns h_batch (Int64.sub (Obs.now_ns ()) t0);
    Obs.add c_placed (List.length o.placed);
    Obs.add c_undeployed (List.length o.undeployed);
    o
  in
  { t with schedule }

let with_faults ~label t =
  {
    t with
    schedule =
      (fun cluster batch ->
        Fault.trip_solver_step label;
        t.schedule cluster batch);
  }

let faults_recoverable = function Fault.Injected _ -> true | _ -> false

(* Run [f] under a fresh mark on [cluster], released on every exit path. *)
let with_mark cluster f =
  let m = Cluster.mark cluster in
  Fun.protect ~finally:(fun () -> Cluster.release cluster m) (fun () -> f m)

let with_transaction ~prefix ~recoverable t =
  let c_rejected = Obs.counter (prefix ^ ".rejected_batches") in
  let c_drops = Obs.counter (prefix ^ ".restore_drops") in
  let schedule cluster batch =
    with_mark cluster (fun m ->
        match t.schedule cluster batch with
        | outcome -> outcome
        | exception e when recoverable e ->
            Cluster.rollback cluster m ~on_drop:(fun () -> Obs.incr c_drops);
            Obs.incr c_rejected;
            reject_outcome batch)
  in
  { t with schedule }

(* ---- Degradation ladder ----------------------------------------------- *)
(* Every rung attempt runs under a fresh ambient deadline; expiry surfaces
   as Flownet.Deadline.Expired (deliberately NOT in any rung's [recoverable]
   predicate, so it passes through the rung's own with_transaction without
   being swallowed), the cluster is rolled back to the batch's mark (which
   encloses every rung's own transaction mark), and the next rung tries.
   When the whole ladder is exhausted the admission-control knob sheds the
   lowest-priority half of the batch and restarts the ladder from the top —
   the preferred solver gets first shot at the smaller batch — so every
   batch terminates with an outcome even under a zero budget. *)

(* Registered at module init (not ladder construction) so the counters are
   present — at zero — in every obs dump, deadline-bounded run or not. *)
let c_ladder_escalations = Obs.counter "ladder.escalations"
let c_ladder_shed = Obs.counter "ladder.shed_containers"
let c_ladder_drops = Obs.counter "ladder.restore_drops"

let with_deadline ?deadline_ms ?(shed = true) rungs =
  if rungs = [] then invalid_arg "Scheduler.with_deadline: empty ladder";
  let c_escalations = c_ladder_escalations in
  let c_shed = c_ladder_shed in
  let c_drops = c_ladder_drops in
  let rungs =
    List.map
      (fun (label, r) -> (r, Obs.counter ("ladder.rung." ^ label)))
      rungs
  in
  let budget () =
    match deadline_ms with
    | Some ms -> Some (Flownet.Deadline.make ~wall_ms:ms ())
    | None ->
        Option.map
          (fun ms -> Flownet.Deadline.make ~wall_ms:ms ())
          (Flownet.Deadline.of_env ())
  in
  let schedule cluster batch =
    with_mark cluster @@ fun m ->
    let restore () =
      Cluster.rollback cluster m ~on_drop:(fun () -> Obs.incr c_drops)
    in
    let attempt rung batch =
      match budget () with
      | None -> rung.schedule cluster batch
      | Some d ->
          Flownet.Deadline.with_ambient d (fun () -> rung.schedule cluster batch)
    in
    let rec ladder batch shed_acc = function
      | (rung, c_rung) :: rest -> (
          match attempt rung batch with
          | o ->
              Obs.incr c_rung;
              { o with undeployed = o.undeployed @ shed_acc }
          | exception Flownet.Deadline.Expired _ ->
              Obs.incr c_escalations;
              restore ();
              ladder batch shed_acc rest)
      | [] when shed && Array.length batch > 0 ->
          (* Highest priority first; ties keep earlier arrivals. *)
          let order = Array.copy batch in
          Array.sort
            (fun (a : Container.t) (b : Container.t) ->
              match compare b.priority a.priority with
              | 0 -> compare a.arrival b.arrival
              | c -> c)
            order;
          let keep_n = Array.length order / 2 in
          let kept = Array.sub order 0 keep_n in
          let dropped =
            Array.to_list (Array.sub order keep_n (Array.length order - keep_n))
          in
          Obs.add c_shed (List.length dropped);
          ladder kept (dropped @ shed_acc) rungs
      | [] -> { empty_outcome with undeployed = Array.to_list batch @ shed_acc }
    in
    ladder batch [] rungs
  in
  let name =
    "ladder(" ^ String.concat "," (List.map (fun (r, _) -> r.name) rungs) ^ ")"
  in
  { name; schedule }

let pp_outcome ppf o =
  Format.fprintf ppf
    "placed=%d undeployed=%d violations=%d (anti=%d) migrations=%d \
     preemptions=%d rounds=%d"
    (List.length o.placed) (List.length o.undeployed)
    (List.length o.violations)
    (Violation.count_anti_affinity o.violations)
    o.migrations o.preemptions o.rounds
