(* Open-loop serving runner. Virtual time is the serving clock: arrival
   gaps come from the seeded Poisson process, and a batch's service time
   is the measured wall time of the real scheduler call mapped 1:1 onto
   virtual seconds — so queueing delay is honest (arrivals accumulate
   while a batch is "in flight") but the sweep runs as fast as the
   scheduler computes. With [service_ms > 0] the service time is fixed
   instead, making the whole run a deterministic function of the config —
   the precondition for crash-consistent journaling ([?journal]): a run
   killed mid-sweep resumes by replaying the DES from t0, skipping the
   scheduler for journaled batches (their cluster effects are diffed back
   from the committed placement maps) and going live at the first
   uncommitted batch with queue, bags and rng streams rebuilt bit-exact. *)

type config = {
  rate : float;
  duration : float;
  queue_bound : int;
  watermark : int;
  batch_size : int;
  batch_deadline : float;
  overload_deadline_ms : float;
  service_ms : float;
  seed : int;
  modulation : Arrivals.modulation;
}

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( try float_of_string (String.trim s) with _ -> default)
  | None -> default

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let config_of_env () =
  let queue_bound = max 1 (env_int "ALADDIN_SERVE_QUEUE" 1024) in
  let watermark =
    let w = env_int "ALADDIN_SERVE_WATERMARK" (3 * queue_bound / 4) in
    max 1 (min queue_bound w)
  in
  {
    rate = env_float "ALADDIN_SERVE_RATE" 0.;
    duration = Float.max 0.01 (env_float "ALADDIN_SERVE_DURATION_S" 1.0);
    queue_bound;
    watermark;
    batch_size = max 1 (env_int "ALADDIN_SERVE_BATCH" 64);
    batch_deadline =
      Float.max 0.1 (env_float "ALADDIN_SERVE_BATCH_DEADLINE_MS" 5.0) /. 1e3;
    overload_deadline_ms =
      Float.max 1. (env_float "ALADDIN_SERVE_OVERLOAD_DEADLINE_MS" 25.0);
    service_ms = Float.max 0. (env_float "ALADDIN_SERVE_SERVICE_MS" 0.);
    seed = env_int "ALADDIN_SERVE_SEED" 42;
    modulation =
      Arrivals.modulation_of_string
        (Option.value ~default:"steady"
           (Sys.getenv_opt "ALADDIN_SERVE_MODULATION"));
  }

type point = {
  rate : float;
  arrivals : int;
  admitted : int;
  rejected : int;
  shed : int;
  placed : int;
  undeployed : int;
  failed_requests : int;
  removed : int;
  noop_removes : int;
  batches : int;
  failed_batches : int;
  overload_batches : int;
  mean_batch_fill : float;
  samples : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  mean_ms : float;
  queue_depth_max : int;
  queue_depth_mean : float;
  saturated : bool;
  sim_s : float;
  wall_ms : float;
}

let c_arrivals = Obs.counter "serve.arrivals"
let c_admitted = Obs.counter "serve.admitted"
let c_rejected = Obs.counter "serve.rejected"
let c_shed = Obs.counter "serve.shed"
let c_placed = Obs.counter "serve.placed"
let c_undeployed = Obs.counter "serve.undeployed"
let c_failed_req = Obs.counter "serve.failed_requests"
let c_removed = Obs.counter "serve.removed"
let c_noop = Obs.counter "serve.noop_removes"
let c_batches = Obs.counter "serve.batches"
let c_failed_batches = Obs.counter "serve.failed_batches"
let c_overload = Obs.counter "serve.overload_batches"
let c_taken = Obs.counter "serve.taken_requests"
let c_resumes = Obs.counter "serve.resume.resumes"
let c_replayed_batches = Obs.counter "serve.resume.replayed_batches"
let c_replayed_requests = Obs.counter "serve.resume.replayed_requests"
let h_latency = Obs.histogram "serve.latency_ns"

(* Per-run latency series get a fresh name so the tail percentiles of one
   sweep point are never polluted by another (registry histograms are
   get-or-create and cannot be zeroed individually). *)
let run_seq = ref 0

(* Constant-time sample/insert/delete set of placed container ids — the
   victim pool for remove and scale-down requests. *)
module Bag = struct
  type t = {
    mutable a : int array;
    mutable n : int;
    idx : (int, int) Hashtbl.t;
  }

  let create () = { a = Array.make 64 0; n = 0; idx = Hashtbl.create 128 }

  let clear t =
    t.n <- 0;
    Hashtbl.reset t.idx

  let add t id =
    if not (Hashtbl.mem t.idx id) then begin
      if t.n >= Array.length t.a then begin
        let b = Array.make (2 * Array.length t.a) 0 in
        Array.blit t.a 0 b 0 t.n;
        t.a <- b
      end;
      t.a.(t.n) <- id;
      Hashtbl.replace t.idx id t.n;
      t.n <- t.n + 1
    end

  let remove t id =
    match Hashtbl.find_opt t.idx id with
    | None -> ()
    | Some i ->
        let last = t.a.(t.n - 1) in
        t.a.(i) <- last;
        Hashtbl.replace t.idx last i;
        Hashtbl.remove t.idx id;
        t.n <- t.n - 1

  let sample t rng = if t.n = 0 then None else Some t.a.(Rng.int rng t.n)
end

type ev = Arrive | Flush of int | Commit of commit

and commit = {
  c_seq : int;  (* 0-based batch sequence number *)
  c_requests : Request.t list;
  c_failed : bool;
  c_placed : int;
  c_undeployed : int;
}

let run ?journal (cfg : config) ~sched ~cluster ~workload =
  if cfg.rate <= 0. then invalid_arg "Runner.run: rate must be positive";
  let n_tpl = Array.length workload.Workload.containers in
  let n_apps = Array.length workload.Workload.apps in
  if n_tpl = 0 || n_apps = 0 then
    invalid_arg "Runner.run: empty workload";
  if journal <> None && cfg.service_ms <= 0. then
    invalid_arg
      "Runner.run: a journal requires a fixed service_ms (measured \
       wall-clock service times are not replayable)";
  (* Trustworthy committed prefix: those batches replay without touching
     the scheduler. The caller must hand us the same initial cluster and
     config as the killed run — the DES re-runs from t0, which is what
     rebuilds admission-queue and victim-bag state exactly. *)
  let prefix =
    match journal with
    | None -> [||]
    | Some path -> Array.of_list (Journal.load path)
  in
  let n_prefix = Array.length prefix in
  if n_prefix > 0 then begin
    Obs.incr c_resumes;
    Obs.add c_replayed_batches n_prefix
  end;
  let jr = Option.map Journal.open_append journal in
  incr run_seq;
  let h_run = Obs.histogram (Printf.sprintf "serve.latency.%d" !run_seq) in
  let wall0 = Obs.now_ns () in
  let horizon = cfg.duration in
  let des : ev Des.t = Des.create () in
  let q = Admission.create ~bound:cfg.queue_bound ~watermark:cfg.watermark in
  let batcher =
    Batcher.create ~size:cfg.batch_size ~deadline:cfg.batch_deadline
  in
  let arr =
    Arrivals.create ~modulation:cfg.modulation ~rate:cfg.rate ~seed:cfg.seed
      ()
  in
  let rng = Rng.create (cfg.seed lxor 0x5e17ed) in
  let ladder =
    lazy
      (Ladder.make ~deadline_ms:cfg.overload_deadline_ms
         ~first:("serve", sched) ())
  in
  (* request materialization state *)
  let apps = Hashtbl.create 64 in
  Array.iter
    (fun (a : Application.t) -> Hashtbl.replace apps a.Application.id a)
    workload.Workload.apps;
  let known : (int, Container.t) Hashtbl.t = Hashtbl.create 1024 in
  let placed_bag = Bag.create () in
  let app_bags : (int, Bag.t) Hashtbl.t = Hashtbl.create 64 in
  let app_bag a =
    match Hashtbl.find_opt app_bags a with
    | Some b -> b
    | None ->
        let b = Bag.create () in
        Hashtbl.replace app_bags a b;
        b
  in
  let bag_add cid =
    Bag.add placed_bag cid;
    match Hashtbl.find_opt known cid with
    | Some c -> Bag.add (app_bag c.Container.app) cid
    | None -> ()
  in
  let bag_remove cid =
    Bag.remove placed_bag cid;
    match Hashtbl.find_opt known cid with
    | Some c -> Bag.remove (app_bag c.Container.app) cid
    | None -> ()
  in
  (* Rebuild the victim pools from ground truth — placements drift when
     the scheduler itself migrates or preempts containers. *)
  let resync () =
    Bag.clear placed_bag;
    Hashtbl.iter (fun _ b -> Bag.clear b) app_bags;
    List.iter
      (fun (cid, _) ->
        (match Cluster.container cluster cid with
        | Some c -> Hashtbl.replace known cid c
        | None -> ());
        bag_add cid)
      (Cluster.placements cluster)
  in
  resync ();
  let next_id =
    ref
      (1
      + List.fold_left
          (fun m (cid, _) -> max m cid)
          (Array.fold_left
             (fun m (c : Container.t) -> max m c.Container.id)
             (-1) workload.Workload.containers)
          (Cluster.placements cluster))
  in
  let next_arrival = ref n_tpl in
  let fresh ~app ~demand ~priority =
    let id = !next_id in
    incr next_id;
    let arrival = !next_arrival in
    incr next_arrival;
    let c = Container.make ~id ~app ~demand ~priority ~arrival in
    Hashtbl.replace known id c;
    c
  in
  let cursor = ref 0 in
  let place_kind () =
    let tpl = workload.Workload.containers.(!cursor mod n_tpl) in
    incr cursor;
    let c =
      fresh ~app:tpl.Container.app ~demand:tpl.Container.demand
        ~priority:tpl.Container.priority
    in
    (Request.Place c, c.Container.priority)
  in
  let req_seq = ref 0 in
  let materialize now =
    let id = !req_seq in
    incr req_seq;
    let kind, priority =
      match Arrivals.draw_kind arr with
      | `Place -> place_kind ()
      | `Remove -> (
          match Bag.sample placed_bag rng with
          | None -> place_kind ()
          | Some cid ->
              let prio =
                match Hashtbl.find_opt known cid with
                | Some c -> c.Container.priority
                | None -> 0
              in
              (Request.Remove cid, prio))
      | `Scale ->
          let a = workload.Workload.apps.(Rng.int rng n_apps) in
          let mag = 1 + Rng.int rng 3 in
          let delta = if Rng.bool rng 0.5 then mag else -mag in
          ( Request.Scale { app = a.Application.id; delta },
            a.Application.priority )
    in
    { Request.id; kind; priority; arrival = now }
  in
  (* metrics *)
  let arrivals_n = ref 0
  and admitted_n = ref 0
  and rejected_n = ref 0
  and shed_n = ref 0
  and placed_n = ref 0
  and undeployed_n = ref 0
  and failed_req_n = ref 0
  and removed_n = ref 0
  and noop_n = ref 0
  and batches_n = ref 0
  and failed_batches_n = ref 0
  and overload_n = ref 0
  and fill_sum = ref 0
  and depth_sum = ref 0
  and depth_samples = ref 0
  and depth_max = ref 0 in
  let busy = ref false in
  let flush_pending = ref false in
  let batches_started = ref 0 in
  let do_remove cid =
    match Cluster.machine_of cluster cid with
    | Some _ ->
        Cluster.remove cluster cid;
        bag_remove cid;
        incr removed_n;
        Obs.incr c_removed
    | None ->
        incr noop_n;
        Obs.incr c_noop
  in
  let start_batch () =
    busy := true;
    flush_pending := false;
    Batcher.disarm batcher des;
    let overload = Admission.length q > cfg.watermark in
    if overload then begin
      incr overload_n;
      Obs.incr c_overload
    end;
    let reqs = Admission.take q ~max:cfg.batch_size in
    let seq = !batches_started in
    incr batches_started;
    let replayed = seq < n_prefix in
    fill_sum := !fill_sum + List.length reqs;
    Obs.add c_taken (List.length reqs);
    (* Kill probe after the take: requests pulled here but never committed
       are not lost on resume — the from-t0 replay regenerates the whole
       arrival stream and re-takes them. Probes stay silent during replay
       so a re-armed countdown only counts live batches. *)
    if Option.is_some jr && not replayed then
      Fault.trip_process_kill "serve.batch_take";
    let places = ref [] in
    List.iter
      (fun (r : Request.t) ->
        match r.Request.kind with
        | Request.Place c ->
            Hashtbl.replace known c.Container.id c;
            places := c :: !places
        | Request.Remove cid -> do_remove cid
        | Request.Scale { app; delta } ->
            if delta > 0 then
              match Hashtbl.find_opt apps app with
              | None -> ()
              | Some a ->
                  for _ = 1 to delta do
                    places :=
                      fresh ~app ~demand:a.Application.demand
                        ~priority:a.Application.priority
                      :: !places
                  done
            else
              for _ = 1 to -delta do
                match Bag.sample (app_bag app) rng with
                | Some cid -> do_remove cid
                | None ->
                    incr noop_n;
                    Obs.incr c_noop
              done)
      reqs;
    let batch = Array.of_list (List.rev !places) in
    (* Victim bags must evolve bit-identically between a live batch and
       its journal replay, and Bag.sample is array-order sensitive — so
       both paths insert freshly placed containers in batch order. *)
    let bag_add_batch placed_set =
      Array.iter
        (fun (c : Container.t) ->
          if Hashtbl.mem placed_set c.Container.id then bag_add c.Container.id)
        batch
    in
    let measured = ref 1e-6 in
    let commit =
      if replayed then begin
        (* Journal replay: skip the scheduler and diff the cluster onto
           the committed placement map. Removals of containers that
           vanished mirror live drift exactly — no bag_remove (live runs
           do not unbag scheduler-preempted containers either; resync
           trues the bags up on the same schedule). *)
        let rec_ = prefix.(seq) in
        Obs.add c_replayed_requests (List.length reqs);
        let target = Hashtbl.create 256 in
        List.iter
          (fun (cid, mid) -> Hashtbl.replace target cid mid)
          rec_.Journal.placements;
        List.iter
          (fun (cid, mid) ->
            match Hashtbl.find_opt target cid with
            | Some m when m = mid -> ()
            | _ -> Cluster.remove cluster cid)
          (Cluster.placements cluster);
        Hashtbl.iter
          (fun cid mid ->
            match Cluster.machine_of cluster cid with
            | Some m when m = mid -> ()
            | _ -> (
                match Hashtbl.find_opt known cid with
                | None -> ()
                | Some c -> (
                    try ignore (Cluster.place ~force:true cluster c mid)
                    with _ -> ())))
          target;
        let failed =
          match rec_.Journal.serve with Some (_, f) -> f <> 0 | None -> false
        in
        let fresh_placed = ref 0 in
        Array.iter
          (fun (c : Container.t) ->
            if Hashtbl.mem target c.Container.id then incr fresh_placed)
          batch;
        bag_add_batch target;
        {
          c_seq = seq;
          c_requests = reqs;
          c_failed = failed;
          c_placed = !fresh_placed;
          c_undeployed = (if failed then 0 else Array.length batch - !fresh_placed);
        }
      end
      else begin
        let s = if overload then Lazy.force ladder else sched in
        let t0 = Obs.now_ns () in
        let result =
          if Array.length batch = 0 then Ok Scheduler.empty_outcome
          else
            try Ok (s.Scheduler.schedule cluster batch)
            with e when Scheduler.faults_recoverable e -> Error ()
        in
        measured :=
          Float.max 1e-6
            (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9);
        match result with
        | Ok o ->
            let placed_set = Hashtbl.create 64 in
            List.iter
              (fun (cid, _) -> Hashtbl.replace placed_set cid ())
              o.Scheduler.placed;
            bag_add_batch placed_set;
            {
              c_seq = seq;
              c_requests = reqs;
              c_failed = false;
              c_placed = List.length o.Scheduler.placed;
              c_undeployed = List.length o.Scheduler.undeployed;
            }
        | Error () ->
            { c_seq = seq; c_requests = reqs; c_failed = true; c_placed = 0;
              c_undeployed = 0 }
      end
    in
    let service =
      if cfg.service_ms > 0. then cfg.service_ms /. 1e3 else !measured
    in
    Des.after des ~delay:service (Commit commit)
  in
  let maybe_start () =
    if (not !busy) && Admission.length q > 0 then
      if Admission.length q >= cfg.batch_size then start_batch ()
      else Batcher.arm batcher des ~flush:(fun g -> Flush g)
  in
  let on_commit now c =
    busy := false;
    incr batches_n;
    Obs.incr c_batches;
    if c.c_failed then begin
      incr failed_batches_n;
      Obs.incr c_failed_batches;
      let n = List.length c.c_requests in
      failed_req_n := !failed_req_n + n;
      Obs.add c_failed_req n
    end
    else
      List.iter
        (fun (r : Request.t) ->
          let lat =
            Int64.of_float (Float.max 0. (now -. r.Request.arrival) *. 1e9)
          in
          Obs.observe_ns h_run lat;
          Obs.observe_ns h_latency lat)
        c.c_requests;
    placed_n := !placed_n + c.c_placed;
    Obs.add c_placed c.c_placed;
    undeployed_n := !undeployed_n + c.c_undeployed;
    Obs.add c_undeployed c.c_undeployed;
    if !batches_n mod 64 = 0 then resync ();
    (match jr with
    | Some j when c.c_seq >= n_prefix ->
        (* Live batch: make it durable, then offer the kill probe — a
           death here loses nothing that was committed. *)
        Journal.append j
          {
            Journal.next_pos = c.c_seq + 1;
            placements = Cluster.placements cluster;
            offline =
              List.filter
                (Cluster.is_offline cluster)
                (List.init (Cluster.n_machines cluster) (fun i -> i));
            fault = Fault.stream_position ();
            serve =
              Some (List.length c.c_requests, if c.c_failed then 1 else 0);
          };
        Fault.trip_process_kill "serve.batch_commit"
    | Some _ ->
        (* Last replayed commit: jump the fault stream to where the dead
           process left it — replayed batches never touched it. *)
        if c.c_seq = n_prefix - 1 then (
          match prefix.(c.c_seq).Journal.fault with
          | Some (draws, failures_left, _) when Fault.active () ->
              Fault.fast_forward ~draws ~failures_left ()
          | _ -> ())
    | None -> ());
    if Admission.length q > 0 then begin
      if !flush_pending || Admission.length q >= cfg.batch_size then
        start_batch ()
      else Batcher.arm batcher des ~flush:(fun g -> Flush g)
    end
    else flush_pending := false
  in
  (* seed the arrival chain: Arrive events are only ever scheduled inside
     the horizon, so the generator stops itself *)
  let t0 = Arrivals.next_gap arr ~now:0. in
  if t0 <= horizon then Des.schedule des ~at:t0 Arrive;
  let running = ref true in
  (* The journal channel must survive a Killed escape closed and flushed —
     the whole point is resuming from what it durably recorded. *)
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close jr)
    (fun () ->
      while !running do
        match Des.next des with
        | None -> running := false
        | Some (now, ev) -> (
            match ev with
            | Arrive ->
                incr arrivals_n;
                Obs.incr c_arrivals;
                let r = materialize now in
                (match Admission.offer q r with
                | Admission.Rejected ->
                    incr rejected_n;
                    Obs.incr c_rejected
                | Admission.Admitted shed ->
                    incr admitted_n;
                    Obs.incr c_admitted;
                    List.iter
                      (fun _ ->
                        incr shed_n;
                        Obs.incr c_shed)
                      shed);
                let depth = Admission.length q in
                depth_sum := !depth_sum + depth;
                incr depth_samples;
                if depth > !depth_max then depth_max := depth;
                let t = now +. Arrivals.next_gap arr ~now in
                if t <= horizon then Des.schedule des ~at:t Arrive;
                maybe_start ()
            | Flush gen ->
                if Batcher.note_fired batcher ~gen then
                  if !busy then flush_pending := true
                  else if Admission.length q > 0 then start_batch ()
            | Commit c -> on_commit now c)
      done);
  let st = Obs.histogram_stats h_run in
  let ms x = x /. 1e6 in
  {
    rate = cfg.rate;
    arrivals = !arrivals_n;
    admitted = !admitted_n;
    rejected = !rejected_n;
    shed = !shed_n;
    placed = !placed_n;
    undeployed = !undeployed_n;
    failed_requests = !failed_req_n;
    removed = !removed_n;
    noop_removes = !noop_n;
    batches = !batches_n;
    failed_batches = !failed_batches_n;
    overload_batches = !overload_n;
    mean_batch_fill =
      (if !batches_n = 0 then 0. else float_of_int !fill_sum /. float_of_int !batches_n);
    samples = st.Obs.samples;
    p50_ms = ms st.Obs.p50_ns;
    p99_ms = ms st.Obs.p99_ns;
    p999_ms = ms st.Obs.p999_ns;
    max_ms = ms st.Obs.max_ns;
    mean_ms = ms st.Obs.mean_ns;
    queue_depth_max = !depth_max;
    queue_depth_mean =
      (if !depth_samples = 0 then 0.
       else float_of_int !depth_sum /. float_of_int !depth_samples);
    saturated = !rejected_n + !shed_n > 0;
    sim_s = Des.now des;
    wall_ms = Int64.to_float (Int64.sub (Obs.now_ns ()) wall0) /. 1e6;
  }

type sweep_result = {
  base_rate : float;
  calibrated : bool;
  points : point list;
}

(* Base rate: with a fixed [service_ms] the capacity is exact — one full
   batch per service time. Otherwise a short probe run: several
   consecutive batches on a throwaway cluster, taking the *median*
   per-request service. The first batch on an empty cluster is
   misleadingly fast, and one descheduled probe can be orders of
   magnitude slow; the median ignores both, and the sweep's bracketing
   absorbs what error is left. Clamps keep a degenerate measurement from
   exploding the event count. *)
let calibrate (cfg : config) ~make_sched ~make_cluster ~workload =
  let per_request =
    if cfg.service_ms > 0. then
      cfg.service_ms /. 1e3 /. float_of_int cfg.batch_size
    else begin
      let cluster = make_cluster () in
      let sched = make_sched () in
      let n_tpl = Array.length workload.Workload.containers in
      let bs = min cfg.batch_size n_tpl in
      let probes =
        Array.init 5 (fun k ->
            let batch =
              Array.init bs (fun i ->
                  workload.Workload.containers.(((k * bs) + i) mod n_tpl))
            in
            let t0 = Obs.now_ns () in
            (try ignore (sched.Scheduler.schedule cluster batch)
             with e when Scheduler.faults_recoverable e -> ());
            let wall =
              Float.max 1e-6
                (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9)
            in
            wall /. float_of_int bs)
      in
      Array.sort Float.compare probes;
      probes.(Array.length probes / 2)
    end
  in
  Float.max 50. (Float.min 500_000. (1. /. per_request))

(* The sweep brackets the saturation knee whatever the calibration error:
   the anchor point runs at a quarter of the calibrated rate; if it is
   already saturated the sweep halves its way down until an underloaded
   point appears, otherwise it doubles its way up until one saturates. *)
let sweep ?(max_points = 8) (cfg : config) ~make_sched ~make_cluster ~workload =
  let calibrated = cfg.rate <= 0. in
  let base =
    if calibrated then calibrate cfg ~make_sched ~make_cluster ~workload
    else cfg.rate
  in
  let run_at m =
    ( m,
      run
        { cfg with rate = base *. m }
        ~sched:(make_sched ()) ~cluster:(make_cluster ()) ~workload )
  in
  let anchor = run_at 0.25 in
  let points = ref [ anchor ] in
  let stop = ref false in
  if (snd anchor).saturated then begin
    let m = ref 0.125 in
    while (not !stop) && List.length !points < max_points
          && !m >= 1. /. 1024. do
      let (_, p) as pt = run_at !m in
      points := pt :: !points;
      if not p.saturated then stop := true else m := !m /. 2.
    done
  end
  else begin
    let m = ref 0.5 in
    while (not !stop) && List.length !points < max_points do
      let (_, p) as pt = run_at !m in
      points := pt :: !points;
      if p.saturated then stop := true else m := !m *. 2.
    done
  end;
  let pts =
    List.sort (fun (a, _) (b, _) -> compare a b) !points |> List.map snd
  in
  { base_rate = base; calibrated; points = pts }
