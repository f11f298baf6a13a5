type t = {
  seed : int;
  trace_line_corruption : float;
  arc_cost_flip : float;
  arc_capacity_drop : float;
  machine_revocation : float;
  solver_step_failure : float;
  solver_failure_budget : int;
  process_kill_after : int;
  cell_crash : float;
  cell_corrupt : float;
  cell_fault_budget : int;
}

exception Injected of string
exception Killed of string

(* Draws come from the repository's splitmix64 Rng rather than
   Stdlib.Random: every Rng operation advances the state by exactly one
   next_int64 step, so the stream position is just a draw count — which is
   what lets a crash-recovery journal record "where the fault schedule was"
   and fast-forward to it on resume. *)
type state = {
  cfg : t;
  rng : Rng.t;
  mutable failures_left : int;
  mutable draws : int;
  mutable kill_countdown : int;
  mutable cell_budget_left : int;
  cell_probes : (int, int) Hashtbl.t;  (* per-cell probe count *)
}

let installed : state option ref = ref None

(* One lock serialises every draw and state mutation, so concurrent
   domains (the cells coordinator probes from worker tasks) keep the
   draw-counted stream well-defined: each draw lands at exactly one
   stream position and the counters stay exact. The [None] fast path —
   no fault configuration installed, i.e. every production run — stays
   lock-free; probes re-check under the lock before drawing. *)
let lock = Mutex.create ()

let with_state f =
  match !installed with
  | None -> None
  | Some _ ->
      Mutex.protect lock (fun () ->
          match !installed with None -> None | Some st -> Some (f st))

let c_solver = Obs.counter "fault.injected_solver_failures"
let c_lines = Obs.counter "fault.corrupted_lines"
let c_arcs = Obs.counter "fault.flipped_arcs"
let c_revoked = Obs.counter "fault.revoked_machines"
let c_kills = Obs.counter "fault.process_kills"
let c_cell_crashes = Obs.counter "fault.cell_crashes"
let c_cell_corruptions = Obs.counter "fault.cell_corruptions"

let make ?(trace_line_corruption = 0.) ?(arc_cost_flip = 0.)
    ?(arc_capacity_drop = 0.) ?(machine_revocation = 0.)
    ?(solver_step_failure = 0.) ?(solver_failure_budget = -1)
    ?(process_kill_after = -1) ?(cell_crash = 0.) ?(cell_corrupt = 0.)
    ?(cell_fault_budget = -1) ~seed () =
  {
    seed;
    trace_line_corruption;
    arc_cost_flip;
    arc_capacity_drop;
    machine_revocation;
    solver_step_failure;
    solver_failure_budget;
    process_kill_after;
    cell_crash;
    cell_corrupt;
    cell_fault_budget;
  }

let install cfg =
  Mutex.protect lock (fun () ->
      installed :=
    Some
      {
        cfg;
        rng = Rng.create cfg.seed;
        failures_left = cfg.solver_failure_budget;
        draws = 0;
        kill_countdown = cfg.process_kill_after;
        cell_budget_left = cfg.cell_fault_budget;
        cell_probes = Hashtbl.create 8;
      })

let clear () = Mutex.protect lock (fun () -> installed := None)
let active () = !installed <> None

(* Counted wrappers — every probe draws through these so [draws] stays an
   exact measure of stream position. *)
let rfloat st =
  st.draws <- st.draws + 1;
  Rng.float st.rng

let rint st bound =
  st.draws <- st.draws + 1;
  Rng.int st.rng bound

(* No draw is consumed for a zero-probability fault class, so enabling one
   class does not perturb the schedule of the others. *)
let draw st p = p > 0. && rfloat st < p

let stream_position () =
  with_state (fun st -> (st.draws, st.failures_left, st.kill_countdown))

let fast_forward ?kill_countdown ~draws ~failures_left () =
  match
    with_state (fun st ->
        if draws < st.draws then
          invalid_arg "Fault.fast_forward: stream already past that position";
        while st.draws < draws do
          ignore (rfloat st)
        done;
        st.failures_left <- failures_left;
        (* The kill countdown is a per-process drill device: a resumed run
           keeps the countdown of the configuration it was launched with
           (usually disarmed) unless the caller explicitly re-arms it —
           otherwise recovery would faithfully re-execute its own crash. *)
        Option.iter (fun k -> st.kill_countdown <- k) kill_countdown)
  with
  | Some () -> ()
  | None -> invalid_arg "Fault.fast_forward: no configuration installed"

let trip_solver_step site =
  let tripped =
    with_state (fun st ->
        if st.failures_left <> 0 && draw st st.cfg.solver_step_failure then begin
          if st.failures_left > 0 then st.failures_left <- st.failures_left - 1;
          Obs.incr c_solver;
          true
        end
        else false)
  in
  if tripped = Some true then raise (Injected site)

let trip_process_kill site =
  let killed =
    with_state (fun st ->
        if st.kill_countdown = 0 then begin
          st.kill_countdown <- -1;
          (* one-shot: the resumed run must get past this point *)
          Obs.incr c_kills;
          true
        end
        else begin
          if st.kill_countdown > 0 then
            st.kill_countdown <- st.kill_countdown - 1;
          false
        end)
  in
  if killed = Some true then raise (Killed site)

let corrupt_line line =
  match
    with_state (fun st ->
      if not (draw st st.cfg.trace_line_corruption) then line
      else begin
        Obs.incr c_lines;
        let len = String.length line in
        match rint st 4 with
        | 0 ->
            (* Truncate mid-line. *)
            if len = 0 then "?" else String.sub line 0 (rint st len)
        | 1 ->
            (* Garble one character. *)
            if len = 0 then "?"
            else begin
              let b = Bytes.of_string line in
              Bytes.set b (rint st len) '?';
              Bytes.to_string b
            end
        | 2 -> ""
        | _ ->
            (* Splice a non-numeric token into a field position. *)
            let cut = if len = 0 then 0 else rint st len in
            String.sub line 0 cut ^ " NaN " ^ String.sub line cut (len - cut)
      end)
  with
  | None -> line
  | Some l -> l

let perturb_arc ~cost ~capacity =
  match
    with_state (fun st ->
      let cost =
        if draw st st.cfg.arc_cost_flip then begin
          Obs.incr c_arcs;
          -cost - 1
        end
        else cost
      in
      let capacity =
        if draw st st.cfg.arc_capacity_drop then begin
          Obs.incr c_arcs;
          0
        end
        else capacity
      in
      (cost, capacity))
  with
  | None -> (cost, capacity)
  | Some r -> r

(* ---- domain-level (cell) faults --------------------------------------

   Cell verdicts are drawn from a side stream keyed on
   (seed, cell, per-cell probe index, fault class) rather than the main
   counted stream: cell tasks probe concurrently from worker domains, so
   routing them through the shared stream would make the journaled draw
   count depend on domain interleaving. A pure per-probe splitmix64 hash
   keeps every verdict deterministic per (cell, probe) regardless of
   execution order — and leaves the main stream position untouched, so
   enabling domain faults never perturbs the schedule of the arc/solver/
   revocation classes. Each class hashes independently, preserving the
   "enabling one class does not perturb the others" rule. *)

let side_draw st ~cell ~probe ~klass =
  Rng.float
    (Rng.create
       (st.cfg.seed
       lxor (cell * 0x9e3779b9)
       lxor (probe * 0x85ebca6b)
       lxor (klass * 0xc2b2ae35)))

let next_probe st cell =
  let k =
    match Hashtbl.find_opt st.cell_probes cell with Some k -> k | None -> 0
  in
  Hashtbl.replace st.cell_probes cell (k + 1);
  k

let spend st =
  if st.cell_budget_left > 0 then
    st.cell_budget_left <- st.cell_budget_left - 1

(* One probe of a cell fault class: fires with the class's probability
   while the shared cell budget lasts. *)
let cell_probe ~cell ~klass counter rate =
  with_state (fun st ->
      let p = rate st.cfg in
      if p = 0. then false
      else begin
        let probe = next_probe st cell in
        if st.cell_budget_left <> 0 && side_draw st ~cell ~probe ~klass < p
        then begin
          spend st;
          Obs.incr counter;
          true
        end
        else false
      end)
  = Some true

let cell_crash ~cell =
  cell_probe ~cell ~klass:1 c_cell_crashes (fun cfg -> cfg.cell_crash)

let cell_corrupt ~cell =
  cell_probe ~cell ~klass:4 c_cell_corruptions (fun cfg -> cfg.cell_corrupt)

let pick_revocation ?(is_offline = fun _ -> false) ~n_machines () =
  Option.join
    (with_state (fun st ->
      if n_machines > 0 && draw st st.cfg.machine_revocation then begin
        (* Draw among the machines still online: revoking an offline
           machine would be a no-op drain, yet the old draw-any-id scheme
           still counted it under fault.revoked_machines — double-counting
           the fault and silently weakening the chaos schedule. One index
           draw is consumed whether or not a candidate exists, so the
           stream position stays independent of cluster state size. *)
        let online = ref [] in
        let n_online = ref 0 in
        for mid = n_machines - 1 downto 0 do
          if not (is_offline mid) then begin
            online := mid :: !online;
            incr n_online
          end
        done;
        let k = rint st (max 1 !n_online) in
        if !n_online = 0 then None
        else begin
          Obs.incr c_revoked;
          Some (List.nth !online k)
        end
      end
      else None))
