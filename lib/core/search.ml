type stats = {
  mutable paths_explored : int;
  mutable il_skips : int;
  mutable dl_cuts : int;
}

type t = {
  il : bool;
  dl : bool;
  cluster : Cluster.t;
  n_machines : int;
  stats : stats;
  (* Packing preference: machines that host containers, in the order they
     were first used, then untouched machines in id order. *)
  active : int array;            (* machine ids, prefix [0, n_active) *)
  mutable n_active : int;
  is_active : bool array;
  mutable cursor : int;          (* first id that may still be inactive *)
  (* Machines proven unable to host even the smallest batch demand are
     parked out of the scan until a migration/preemption frees space. *)
  mutable min_demand : Resource.t;
  mutable parked : int list;
  (* IL caches. The pair cache is a bitmap over (batch app slot, machine):
     one bit per admissibility failure, so consulting it costs less than
     re-running the capacity function. *)
  mutable app_slot : (Application.id, int) Hashtbl.t;
  mutable n_app_slots : int;
  mutable failed_pair : Bytes.t;
  mutable failed_app : Bytes.t;
}

let min_demand_of batch ~dims =
  let mins = Array.make dims max_int in
  Array.iter
    (fun (c : Container.t) ->
      let d = Resource.to_array c.Container.demand in
      Array.iteri (fun i x -> if x < mins.(i) then mins.(i) <- x) d)
    batch;
  Array.iteri (fun i x -> if x = max_int then mins.(i) <- 0) mins;
  Resource.of_array mins

(* A machine on which even the pointwise-minimal batch demand fails in some
   dimension can host no batch container at all. *)
let machine_dead t m = not (Machine.fits m t.min_demand)

let app_slots_of fg =
  let apps = Flow_graph.app_ids fg in
  let app_slot = Hashtbl.create (List.length apps) in
  List.iteri (fun i app -> Hashtbl.replace app_slot app i) apps;
  (app_slot, max 1 (List.length apps))

let refresh t fg =
  if not (Flow_graph.cluster fg == t.cluster) then
    invalid_arg "Search.refresh: different cluster";
  let batch = Flow_graph.batch fg in
  let dims = Resource.dims t.min_demand in
  t.min_demand <- min_demand_of batch ~dims;
  (* Per-batch IL caches restart from scratch (app slots are batch-local). *)
  let app_slot, n_app_slots = app_slots_of fg in
  t.app_slot <- app_slot;
  if t.il then begin
    let pair_len = ((n_app_slots * t.n_machines) + 7) / 8 in
    if n_app_slots <> t.n_app_slots || Bytes.length t.failed_pair <> pair_len
    then begin
      t.failed_pair <- Bytes.make pair_len '\000';
      t.failed_app <- Bytes.make ((n_app_slots + 7) / 8) '\000'
    end
    else begin
      Bytes.fill t.failed_pair 0 (Bytes.length t.failed_pair) '\000';
      Bytes.fill t.failed_app 0 (Bytes.length t.failed_app) '\000'
    end
  end;
  t.n_app_slots <- n_app_slots;
  t.stats.paths_explored <- 0;
  t.stats.il_skips <- 0;
  t.stats.dl_cuts <- 0;
  t.parked <- [];
  t.cursor <- 0;
  (* The packing preference is seeded from the cluster, not from what this
     search placed: machines in use, in id order, whoever put containers
     on them. *)
  t.n_active <- 0;
  Array.iter
    (fun m ->
      let id = Machine.id m in
      let used = Machine.is_used m in
      t.is_active.(id) <- used;
      if used then begin
        t.active.(t.n_active) <- id;
        t.n_active <- t.n_active + 1
      end)
    (Cluster.machines t.cluster)

let create ?(il = true) ?(dl = true) fg =
  let cluster = Flow_graph.cluster fg in
  let n = Cluster.n_machines cluster in
  let dims = Resource.dims (Topology.capacity (Cluster.topology cluster) 0) in
  let t =
    {
      il;
      dl;
      cluster;
      n_machines = n;
      stats = { paths_explored = 0; il_skips = 0; dl_cuts = 0 };
      active = Array.make n 0;
      n_active = 0;
      is_active = Array.make n false;
      cursor = 0;
      min_demand = Resource.of_array (Array.make dims 0);
      parked = [];
      app_slot = Hashtbl.create 1;
      n_app_slots = 0;
      failed_pair = Bytes.empty;
      failed_app = Bytes.empty;
    }
  in
  refresh t fg;
  t

let stats t = t.stats

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let slot_of t app = Hashtbl.find_opt t.app_slot app

let note_placement t mid =
  if not t.is_active.(mid) then begin
    t.active.(t.n_active) <- mid;
    t.n_active <- t.n_active + 1;
    t.is_active.(mid) <- true
  end

let invalidate t =
  if t.il then begin
    Bytes.fill t.failed_pair 0 (Bytes.length t.failed_pair) '\000';
    Bytes.fill t.failed_app 0 (Bytes.length t.failed_app) '\000'
  end;
  (* Freed resources can revive parked machines. *)
  List.iter
    (fun mid ->
      t.active.(t.n_active) <- mid;
      t.n_active <- t.n_active + 1)
    t.parked;
  t.parked <- []

let find_machine t (c : Container.t) =
  let slot = if t.il then slot_of t c.Container.app else None in
  let app_failed =
    match slot with Some s -> bit_get t.failed_app s | None -> false
  in
  if app_failed then begin
    t.stats.il_skips <- t.stats.il_skips + 1;
    None
  end
  else begin
    let n = t.n_machines in
    let best = ref None in
    let stop = ref false in
    let scanned = ref 0 in
    let check mid =
      let skip =
        match slot with
        | Some s -> bit_get t.failed_pair ((s * n) + mid)
        | None -> false
      in
      if skip then t.stats.il_skips <- t.stats.il_skips + 1
      else begin
        incr scanned;
        t.stats.paths_explored <- t.stats.paths_explored + 1;
        match Cluster.admissible t.cluster c mid with
        | Ok () ->
            if !best = None then best := Some mid;
            (* Depth limiting: T_i's flow is capped by its demand, so no
               further path can increase it — stop searching. *)
            if t.dl then stop := true
        | Error _ -> (
            match slot with
            | Some s -> bit_set t.failed_pair ((s * n) + mid)
            | None -> ())
      end
    in
    (* Tier 1: active machines, parking the ones that can no longer host
       anything from this batch. One pass compacts the prefix in place:
       survivors move down to the write index [w] in scan order, so every
       policy scans them in the same preference order (keeps IL/DL
       placement-neutral), and the unvisited tail moves down once when
       DL stops the scan. Parked machines keep [is_active] set so the
       cursor tier skips them too. *)
    let i = ref 0 in
    let w = ref 0 in
    while (not !stop) && !i < t.n_active do
      let mid = t.active.(!i) in
      incr i;
      if machine_dead t (Cluster.machine t.cluster mid) then
        t.parked <- mid :: t.parked
      else begin
        t.active.(!w) <- mid;
        incr w;
        check mid
      end
    done;
    if !w < !i then begin
      Array.blit t.active !i t.active !w (t.n_active - !i);
      t.n_active <- t.n_active - (!i - !w)
    end;
    (* Tier 2: untouched machines in id order. *)
    while t.cursor < n && t.is_active.(t.cursor) do
      t.cursor <- t.cursor + 1
    done;
    let id = ref t.cursor in
    while (not !stop) && !id < n do
      if not t.is_active.(!id) then check !id;
      incr id
    done;
    if !stop then t.stats.dl_cuts <- t.stats.dl_cuts + (n - !scanned);
    if !best = None then begin
      match slot with Some s -> bit_set t.failed_app s | None -> ()
    end;
    !best
  end
