(* Reference search for the parking property: [Aladdin.Search] as it was
   before one-pass parking. Tier 1 removes each dead (full) machine from
   the active prefix with an [Array.blit] of everything after it, which
   costs O(dead x active) on the first find of a batch but is plainly
   order-preserving. Every other line is [Aladdin.Search]'s, so the two
   must agree on every find result and every stats counter. It has no
   refresh: a refreshed [Aladdin.Search] must equal a fresh [create]. *)

open Aladdin

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

let create ?(il = true) ?(dl = true) fg =
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
      cluster;
      n_machines = n;
      stats = { paths_explored = 0; il_skips = 0; dl_cuts = 0 };
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
