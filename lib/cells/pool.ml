(* A persistent pool of worker domains for the cells coordinator.

   Domains are spawned once and parked on a condition variable between
   batches — spawning per batch would cost more than a small cell solve.
   Jobs are dispatched as an epoch bump: [run] publishes a task array,
   wakes the workers, and participates in the draining itself, so a pool
   with [workers = n-1] puts n domains on an n-cell batch. With
   [workers = 0] the pool degenerates to inline sequential execution —
   the mode a single-core host (or [`Sequential] determinism testing)
   wants, with no domain overhead at all.

   The mutex/condition handshake doubles as the memory-model edge: task
   results written by a worker happen-before the coordinator's read of
   [unfinished = 0], so [run]'s caller sees fully initialised results
   (and fully merged Obs shard updates). The per-task [completed] flags
   are written and read under the same mutex, which is what lets
   [run_within] harvest the subset of results whose tasks finished
   before a join timeout without racing the stragglers.

   Domains cannot be killed, so "abandoning" a hung job means marking the
   pool unusable ([abandoned]) and leaving the stuck domain to finish on
   its own time; the supervisor above us retires the pool and builds a
   fresh one. [retire] stops the pool without joining: idle workers exit
   at once, the straggler when its task returns, and no retired worker
   starts another task. [shutdown] still joins — the injected stalls this
   exists for are finite, and a genuinely infinite task would otherwise
   turn process exit into a hang with no diagnostic. *)

type t = {
  lock : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable tasks : (unit -> unit) array;
  mutable completed : bool array;
  mutable next : int;
  mutable unfinished : int;
  mutable epoch : int;
  mutable stop : bool;
  mutable abandoned : bool;
  mutable domains : unit Domain.t array;
}

(* Pull and run tasks until the current job is drained. Called (and
   returns) with the lock held. *)
let drain t =
  let continue_ = ref true in
  while !continue_ do
    if (not t.stop) && t.next < Array.length t.tasks then begin
      let i = t.next in
      t.next <- i + 1;
      let task = t.tasks.(i) in
      let completed = t.completed in
      Mutex.unlock t.lock;
      (* [run] wraps tasks so they never raise, but an exception escaping
         here would kill the worker domain and strand the job (unfinished
         never reaches 0) — swallow defensively so one bad task cannot
         poison the pool for every later user. *)
      (try task () with _ -> ());
      Mutex.lock t.lock;
      if i < Array.length completed then completed.(i) <- true;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.done_
    end
    else continue_ := false
  done

let worker t () =
  Mutex.lock t.lock;
  let seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    while (not t.stop) && t.epoch = !seen do
      Condition.wait t.work t.lock
    done;
    if t.stop then continue_ := false
    else begin
      seen := t.epoch;
      drain t
    end
  done;
  Mutex.unlock t.lock

let retire t =
  Mutex.protect t.lock (fun () ->
      t.abandoned <- true;
      t.stop <- true;
      Condition.broadcast t.work)

let shutdown t =
  let ds =
    Mutex.protect t.lock (fun () ->
        let ds = t.domains in
        t.domains <- [||];
        t.stop <- true;
        Condition.broadcast t.work;
        ds)
  in
  Array.iter Domain.join ds

let create ~workers =
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      tasks = [||];
      completed = [||];
      next = 0;
      unfinished = 0;
      epoch = 0;
      stop = false;
      abandoned = false;
      domains = [||];
    }
  in
  if workers > 0 then begin
    t.domains <- Array.init workers (fun _ -> Domain.spawn (worker t));
    (* Parked workers would keep the process alive past the last batch;
       shutdown is idempotent, so an explicit earlier shutdown is fine. *)
    at_exit (fun () -> shutdown t)
  end;
  t

let n_workers t = Array.length t.domains
let abandoned t = t.abandoned

(* Called with the lock held; raises with it released. *)
let check_idle t =
  if t.abandoned then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.run: pool abandoned (timed-out or interrupted job)"
  end;
  if t.unfinished > 0 then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.run: pool is already running a job"
  end

let wrap fs results =
  Array.init (Array.length fs) (fun i () ->
      results.(i) <- (try Ok (fs.(i) ()) with e -> Error e))

let publish t thunks n =
  t.tasks <- thunks;
  t.completed <- Array.make n false;
  t.next <- 0;
  t.unfinished <- n;
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.work

let run t fs =
  let n = Array.length fs in
  if n = 0 then [||]
  else begin
    let results = Array.make n (Error Exit) in
    let thunks = wrap fs results in
    if Array.length t.domains = 0 then Array.iter (fun f -> f ()) thunks
    else begin
      Mutex.lock t.lock;
      check_idle t;
      publish t thunks n;
      (try
         drain t;
         while t.unfinished > 0 do
           Condition.wait t.done_ t.lock
         done
       with e ->
         (* The caller's wait was interrupted (e.g. Sys.Break) with
            workers possibly mid-task: the job state cannot be reset
            safely, so poison-fail fast instead of corrupting the next
            user's join. *)
         t.abandoned <- true;
         Mutex.unlock t.lock;
         raise e);
      t.tasks <- [||];
      Mutex.unlock t.lock
    end;
    results
  end

let run_within t ~timeout_s fs =
  let n = Array.length fs in
  if n = 0 then `Done [||]
  else if Array.length t.domains = 0 then
    (* No workers to time out against: inline execution, like [run]. *)
    `Done (run t fs)
  else begin
    let results = Array.make n (Error Exit) in
    let thunks = wrap fs results in
    Mutex.lock t.lock;
    check_idle t;
    publish t thunks n;
    (* The caller must NOT drain: picking up a task would make the caller
       itself the hung domain. It waits out the join with a polling sleep
       (OCaml's Condition has no timed wait) — ~0.2 ms granularity, which
       is noise against a cell solve and bounded by [timeout_s]. *)
    let deadline =
      Int64.add (Obs.now_ns ()) (Int64.of_float (timeout_s *. 1e9))
    in
    let timed_out = ref false in
    while t.unfinished > 0 && not !timed_out do
      if Obs.now_ns () >= deadline then timed_out := true
      else begin
        Mutex.unlock t.lock;
        Unix.sleepf 2e-4;
        Mutex.lock t.lock
      end
    done;
    if not !timed_out then begin
      t.tasks <- [||];
      Mutex.unlock t.lock;
      `Done results
    end
    else begin
      (* Harvest what finished; the [completed] flags are only set under
         the lock after the task returned, so a [Some] here is a fully
         published result even while stragglers keep running. The pool is
         poisoned — the stuck domain still owns the published task array. *)
      let partial =
        Array.init n (fun i ->
            if t.completed.(i) then Some results.(i) else None)
      in
      t.abandoned <- true;
      Mutex.unlock t.lock;
      `Timed_out partial
    end
  end
