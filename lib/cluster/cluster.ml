type denial = No_capacity | Blacklisted of Application.id

type event =
  | Placed of Container.t * Machine.id * bool
  | Removed of Container.t * Machine.id

type t = {
  topology : Topology.t;
  constraints : Constraint_set.t;
  machines : Machine.t array;
  blacklist : Blacklist.t;
  placed : (Container.id, Container.t * Machine.id) Hashtbl.t;
  offline : bool array;
  (* Every mutation bumps [version], so a mirror (a cells coordinator's
     per-cell copy) can detect out-of-band changes — a revocation, an
     audit repair, a transactional rollback — with one integer compare
     instead of a full diff. The optional tracer sees each mutation as it
     happens; mirrors replay the events instead of re-deriving state. *)
  mutable version : int;
  mutable tracer : (event -> unit) option;
  (* Mutation log, newest first: every event while a mark is open, so a
     transaction undoes its own mutations instead of copying the whole
     placement map up front. Empty whenever no mark is open. *)
  mutable log : event list;
  mutable log_len : int;
  mutable open_marks : int;
}

type mark = int

let create topology ~constraints =
  let n = Topology.n_machines topology in
  {
    topology;
    constraints;
    machines =
      Array.init n (fun i ->
          Machine.create ~id:i ~rack:(Topology.rack_of topology i)
            ~group:(Topology.group_of topology i)
            ~capacity:(Topology.capacity topology i));
    blacklist = Blacklist.create constraints ~n_machines:n;
    placed = Hashtbl.create 1024;
    offline = Array.make n false;
    version = 0;
    tracer = None;
    log = [];
    log_len = 0;
    open_marks = 0;
  }

let topology t = t.topology
let version t = t.version
let set_tracer t tr = t.tracer <- tr

let emit t ev =
  t.version <- t.version + 1;
  if t.open_marks > 0 then begin
    t.log <- ev :: t.log;
    t.log_len <- t.log_len + 1
  end;
  match t.tracer with None -> () | Some f -> f ev

let constraints t = t.constraints
let n_machines t = Array.length t.machines

let machine t i =
  if i < 0 || i >= Array.length t.machines then
    invalid_arg "Cluster.machine: out of range";
  t.machines.(i)

let machines t = t.machines

let set_offline t mid v =
  let _ = machine t mid in
  if t.offline.(mid) <> v then begin
    t.offline.(mid) <- v;
    t.version <- t.version + 1
  end

let is_offline t mid =
  let _ = machine t mid in
  t.offline.(mid)

let admissible t (c : Container.t) mid =
  let m = machine t mid in
  if t.offline.(mid) then Error No_capacity
  else if not (Machine.fits m c.Container.demand) then Error No_capacity
  else if Blacklist.blocked t.blacklist ~machine:mid ~app:c.Container.app then begin
    (* Identify the offending deployed app for diagnostics. *)
    let against = ref c.Container.app in
    (try
       Machine.iter_apps m (fun app _ ->
           if Constraint_set.conflict t.constraints c.Container.app app then begin
             against := app;
             raise Exit
           end)
     with Exit -> ());
    Error (Blacklisted !against)
  end
  else Ok ()

let place ?(force = false) t (c : Container.t) mid =
  if Hashtbl.mem t.placed c.Container.id then
    invalid_arg "Cluster.place: container already placed";
  let decision =
    match admissible t c mid with
    | Ok () -> Ok ()
    | Error No_capacity -> Error No_capacity
    | Error (Blacklisted a) -> if force then Ok () else Error (Blacklisted a)
  in
  match decision with
  | Error _ as e -> e
  | Ok () ->
      Machine.place (machine t mid) c;
      Blacklist.on_place t.blacklist ~machine:mid ~app:c.Container.app;
      Hashtbl.replace t.placed c.Container.id (c, mid);
      emit t (Placed (c, mid, force));
      Ok ()

let remove t cid =
  match Hashtbl.find_opt t.placed cid with
  | None -> invalid_arg "Cluster.remove: container not placed"
  | Some (c, mid) ->
      Machine.remove (machine t mid) c;
      Blacklist.on_remove t.blacklist ~machine:mid ~app:c.Container.app;
      Hashtbl.remove t.placed cid;
      emit t (Removed (c, mid))

let machine_of t cid =
  Option.map (fun (_, mid) -> mid) (Hashtbl.find_opt t.placed cid)

let container t cid =
  Option.map (fun (c, _) -> c) (Hashtbl.find_opt t.placed cid)

let n_placed t = Hashtbl.length t.placed

let placements t =
  Hashtbl.fold (fun cid (_, mid) acc -> (cid, mid) :: acc) t.placed []

let used_machines t =
  Array.fold_left
    (fun n m -> if Machine.is_used m then n + 1 else n)
    0 t.machines

let utilizations t =
  Array.fold_left
    (fun acc m -> if Machine.is_used m then Machine.utilization m :: acc else acc)
    [] t.machines

let current_violations t =
  Hashtbl.fold
    (fun cid ((c : Container.t), mid) acc ->
      let m = machine t mid in
      let acc = ref acc in
      Machine.iter_apps m (fun app n ->
          let conflicts =
            if app = c.Container.app then
              (* anti-within violated only when >1 container of the app *)
              n > 1 && Constraint_set.anti_within t.constraints app
            else Constraint_set.conflict t.constraints c.Container.app app
          in
          if conflicts then
            acc :=
              Violation.Anti_affinity { container = cid; machine = mid; against = app }
              :: !acc);
      !acc)
    t.placed []

let drain t mid =
  let victims = Machine.containers (machine t mid) in
  List.iter (fun (c : Container.t) -> remove t c.Container.id) victims;
  victims

let blacklist t = t.blacklist

let reset t =
  let ids = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.placed [] in
  List.iter (remove t) ids

let mark t =
  t.open_marks <- t.open_marks + 1;
  t.log_len

let check_mark fn t m =
  if t.open_marks = 0 || m < 0 || m > t.log_len then
    invalid_arg ("Cluster." ^ fn ^ ": mark is not open")

let log_length t = t.log_len

let release t m =
  check_mark "release" t m;
  t.open_marks <- t.open_marks - 1;
  if t.open_marks = 0 then begin
    t.log <- [];
    t.log_len <- 0
  end

(* Undo newest first. The undo is not itself undoable: the log is cut
   back to the mark afterwards, dropping whatever the undo appended. A
   re-place can fail only on a machine that went offline since; that
   drop is provisional until the walk reaches the container's oldest
   event, because undoing an earlier [Placed] of the same container shows
   it was not placed at the mark after all. A final drop is logged as a
   removal above the mark (not traced: the tracer never saw the failed
   re-place), so rolling back again to this mark or to an enclosing one
   retries it: every rollback puts back all the mark's placements whose
   machines are online. *)
let rollback t m ~on_drop =
  check_mark "rollback" t m;
  let dropped = ref [] in
  let undo = function
    | Placed (c, _, _) ->
        let cid = c.Container.id in
        if Hashtbl.mem t.placed cid then remove t cid
        else
          dropped :=
            List.filter
              (function Removed (d, _) -> d.Container.id <> cid | _ -> true)
              !dropped
    | Removed (c, mid) as ev -> (
        match place ~force:true t c mid with
        | Ok () -> ()
        | Error _ -> dropped := ev :: !dropped)
  in
  let rec walk n log =
    if n = 0 then log
    else
      match log with
      | ev :: rest ->
          undo ev;
          walk (n - 1) rest
      | [] -> assert false
  in
  let kept = walk (t.log_len - m) t.log in
  t.log <- kept;
  t.log_len <- m;
  List.iter
    (fun ev ->
      t.log <- ev :: t.log;
      t.log_len <- t.log_len + 1;
      on_drop ())
    (List.rev !dropped)
