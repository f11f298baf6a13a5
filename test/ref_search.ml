(* Reference search for the parking property: [Aladdin.Search] as it was
   before one-pass parking. Tier 1 removes each dead (full) machine from
   the active prefix with an [Array.blit] of everything after it, which
   costs O(dead x active) on the first find of a batch but is plainly
   order-preserving. Every other line is [Aladdin.Search]'s, so the two
   must agree on every find result and every stats counter. *)

open Aladdin

type stats = {
  mutable paths_explored : int;
  mutable il_skips : int;
  mutable dl_cuts : int;
  mutable eq_skips : int;
}

type t = {
  il : bool;
  dl : bool;
  eq : bool;
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
  (* Machine equivalence classes, keyed on the free-resource signature.
     "Free vector F cannot host demand D" is a pure fact about the two
     vectors, so entries stay valid forever — across batches included —
     and machines sharing a signature share the verdict. Two levels
     (demand, then free signature) so the per-machine probe in the scan
     loop hashes only the free vector, with the demand table resolved
     once per container. Sound because [Machine.free] snapshots are
     replaced on placement, never mutated in place. *)
  unfit : (Resource.t, (Resource.t, unit) Hashtbl.t) Hashtbl.t;
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

let create ?(il = true) ?(dl = true) ?(eq = false) fg =
  let cluster = Flow_graph.cluster fg in
  let n = Cluster.n_machines cluster in
  let batch = Flow_graph.batch fg in
  let app_slot, n_app_slots = app_slots_of fg in
  let dims =
    Resource.dims (Topology.capacity (Cluster.topology cluster) 0)
  in
  let t =
    {
      il;
      dl;
      eq;
      cluster;
      n_machines = n;
      stats = { paths_explored = 0; il_skips = 0; dl_cuts = 0; eq_skips = 0 };
      active = Array.make n 0;
      n_active = 0;
      is_active = Array.make n false;
      cursor = 0;
      min_demand = min_demand_of batch ~dims;
      parked = [];
      app_slot;
      n_app_slots;
      failed_pair =
        (if il then Bytes.make (((n_app_slots * n) + 7) / 8) '\000'
         else Bytes.empty);
      failed_app =
        (if il then Bytes.make ((n_app_slots + 7) / 8) '\000' else Bytes.empty);
      unfit = (if eq then Hashtbl.create 64 else Hashtbl.create 1);
    }
  in
  (* Machines used by earlier batches are already active. *)
  Array.iter
    (fun m ->
      if Machine.is_used m then begin
        let id = Machine.id m in
        t.active.(t.n_active) <- id;
        t.n_active <- t.n_active + 1;
        t.is_active.(id) <- true
      end)
    (Cluster.machines cluster);
  t

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
  (* Re-seed the packing preference exactly as a from-scratch create would:
     the machines currently in use, in machine-id order. [is_active] is set
     exactly for the machines this search has touched (the active prefix
     plus the parked list — parking keeps the bit set), and only those can
     have gained or lost containers through the scheduler. Drop the bit for
     any that went back to empty, then one ascending scan of the bitmap
     rebuilds the prefix in machine-id order — same order the old
     sort-based rebuild produced, with no per-batch list churn or sort. *)
  for i = 0 to t.n_active - 1 do
    let mid = t.active.(i) in
    if not (Machine.is_used (Cluster.machine t.cluster mid)) then
      t.is_active.(mid) <- false
  done;
  List.iter
    (fun mid ->
      if not (Machine.is_used (Cluster.machine t.cluster mid)) then
        t.is_active.(mid) <- false)
    t.parked;
  t.parked <- [];
  t.n_active <- 0;
  for mid = 0 to t.n_machines - 1 do
    if t.is_active.(mid) then begin
      t.active.(t.n_active) <- mid;
      t.n_active <- t.n_active + 1
    end
  done;
  t.cursor <- 0;
  (* Per-batch stats, mirroring a fresh create. The cross-batch [unfit]
     equivalence table is deliberately kept. *)
  t.stats.paths_explored <- 0;
  t.stats.il_skips <- 0;
  t.stats.dl_cuts <- 0;
  t.stats.eq_skips <- 0

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
    (* Resolve this container's demand once: the probe loop below then
       hashes only the machine's free vector, with no per-probe key
       allocation. *)
    let unfit_frees =
      if t.eq then
        match Hashtbl.find_opt t.unfit c.Container.demand with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 64 in
            Hashtbl.replace t.unfit c.Container.demand h;
            h
      else Hashtbl.create 1
    in
    let check mid =
      let skip =
        match slot with
        | Some s -> bit_get t.failed_pair ((s * n) + mid)
        | None -> false
      in
      if skip then t.stats.il_skips <- t.stats.il_skips + 1
      else begin
        let machine = Cluster.machine t.cluster mid in
        (* Equivalence class: a machine whose free-resource signature is
           already known too small for this demand fails without being
           scanned. Sound because capacity fit is a pure function of
           (free, demand); blacklist conflicts stay per-machine. *)
        let free = Machine.free machine in
        let eq_unfit = t.eq && Hashtbl.mem unfit_frees free in
        if eq_unfit then begin
          t.stats.eq_skips <- t.stats.eq_skips + 1;
          match slot with
          | Some s -> bit_set t.failed_pair ((s * n) + mid)
          | None -> ()
        end
        else begin
          incr scanned;
          t.stats.paths_explored <- t.stats.paths_explored + 1;
          match Cluster.admissible t.cluster c mid with
          | Ok () ->
              if !best = None then best := Some mid;
              (* Depth limiting: T_i's flow is capped by its demand, so no
                 further path can increase it — stop searching. *)
              if t.dl then stop := true
          | Error err ->
              (match slot with
              | Some s -> bit_set t.failed_pair ((s * n) + mid)
              | None -> ());
              (* Record the equivalence-class verdict only for genuine
                 capacity misfits: offline machines also answer
                 No_capacity but their signature is not at fault. *)
              (match err with
              | Cluster.No_capacity
                when t.eq
                     && (not (Cluster.is_offline t.cluster mid))
                     && not (Machine.fits machine c.Container.demand) ->
                  Hashtbl.replace unfit_frees free ()
              | _ -> ())
        end
      end
    in
    (* Tier 1: active machines, parking the ones that can no longer host
       anything from this batch. *)
    let i = ref 0 in
    while (not !stop) && !i < t.n_active do
      let mid = t.active.(!i) in
      if machine_dead t (Cluster.machine t.cluster mid) then begin
        (* order-preserving removal, so every policy scans survivors in
           the same preference order (keeps IL/DL placement-neutral);
           is_active stays set so the cursor tier skips it too *)
        Array.blit t.active (!i + 1) t.active !i (t.n_active - !i - 1);
        t.n_active <- t.n_active - 1;
        t.parked <- mid :: t.parked
      end
      else begin
        check mid;
        incr i
      end
    done;
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
