(* Domain-safe observability.

   Series are registered once in a global, mutex-guarded registry that
   hands out dense integer ids; the *values* live in per-domain shards
   reached through [Domain.DLS], so the hot operations — [incr], [add],
   [observe_ns] — touch only domain-local arrays and take no lock. Reads
   ([count], [counters], [histograms]) merge every shard under the
   registry lock. A merge that races a concurrently running domain may
   miss its very latest in-flight updates (monitoring-grade snapshot), but
   updates are never lost: each one lands in exactly one shard, and any
   happens-before edge to the reader (Domain.join, a pool handshake) makes
   it visible — the two-domain regression test pins this down. *)

type counter = { c_name : string; c_id : int }

(* 64 power-of-two buckets over nanoseconds: bucket i holds samples with
   floor(log2 ns) = i. Constant storage, <= 2x percentile error. *)
type hcell = {
  buckets : int array;
  mutable samples : int;
  mutable sum_ns : float;
  mutable max_ns : float;
}

type histogram = { h_name : string; h_id : int }

(* One domain's slice of every series. The arrays grow on demand without
   the lock — they are only ever touched by the owning domain; the
   registry lock is taken just to publish the shard itself. *)
type shard = {
  mutable counts : int array;
  mutable hists : hcell option array;
}

let registry_lock = Mutex.create ()
let locked f = Mutex.protect registry_lock f
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16
let n_counters = ref 0
let n_histograms = ref 0
let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      locked (fun () ->
          let s =
            {
              counts = Array.make (max 64 !n_counters) 0;
              hists = Array.make (max 16 !n_histograms) None;
            }
          in
          shards := s :: !shards;
          s))

let my_shard () = Domain.DLS.get shard_key

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_id = !n_counters } in
          incr n_counters;
          Hashtbl.replace counters_tbl name c;
          c)

let counts_for s id =
  let a = s.counts in
  if id < Array.length a then a
  else begin
    let b = Array.make (max (id + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    s.counts <- b;
    b
  end

let add c n =
  let a = counts_for (my_shard ()) c.c_id in
  a.(c.c_id) <- a.(c.c_id) + n

let incr c = add c 1

(* Merge across shards. Shard arrays may be shorter than the registry
   (a domain that never touched a late-registered series) — missing
   entries contribute zero. *)
let count c =
  locked (fun () ->
      List.fold_left
        (fun acc s ->
          if c.c_id < Array.length s.counts then acc + s.counts.(c.c_id)
          else acc)
        0 !shards)

let now_ns () = Monotonic_clock.now ()

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h -> h
      | None ->
          let h = { h_name = name; h_id = !n_histograms } in
          n_histograms := !n_histograms + 1;
          Hashtbl.replace histograms_tbl name h;
          h)

let hcell_for s id =
  let a =
    if id < Array.length s.hists then s.hists
    else begin
      let b = Array.make (max (id + 1) (2 * Array.length s.hists)) None in
      Array.blit s.hists 0 b 0 (Array.length s.hists);
      s.hists <- b;
      b
    end
  in
  match a.(id) with
  | Some cell -> cell
  | None ->
      let cell =
        { buckets = Array.make 64 0; samples = 0; sum_ns = 0.; max_ns = 0. }
      in
      a.(id) <- Some cell;
      cell

let bucket_of_ns ns =
  if ns <= 0L then 0
  else
    (* floor(log2 ns): position of the highest set bit *)
    let rec go i v =
      if v = 0L then i - 1 else go (i + 1) (Int64.shift_right_logical v 1)
    in
    go 0 ns

let observe_ns h ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  let cell = hcell_for (my_shard ()) h.h_id in
  let b = bucket_of_ns ns in
  cell.buckets.(b) <- cell.buckets.(b) + 1;
  cell.samples <- cell.samples + 1;
  let f = Int64.to_float ns in
  cell.sum_ns <- cell.sum_ns +. f;
  if f > cell.max_ns then cell.max_ns <- f

let time h f =
  let t0 = now_ns () in
  let r = f () in
  observe_ns h (Int64.sub (now_ns ()) t0);
  r

type histogram_stats = {
  samples : int;
  sum_ns : float;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

(* Caller holds the registry lock. *)
let merged_hcell h =
  let m =
    { buckets = Array.make 64 0; samples = 0; sum_ns = 0.; max_ns = 0. }
  in
  List.iter
    (fun s ->
      if h.h_id < Array.length s.hists then
        match s.hists.(h.h_id) with
        | None -> ()
        | Some cell ->
            for i = 0 to 63 do
              m.buckets.(i) <- m.buckets.(i) + cell.buckets.(i)
            done;
            m.samples <- m.samples + cell.samples;
            m.sum_ns <- m.sum_ns +. cell.sum_ns;
            if cell.max_ns > m.max_ns then m.max_ns <- cell.max_ns)
    !shards;
  m

(* Percentile from the bucket CDF; a bucket is reported at its geometric
   midpoint (1.5 * 2^i). *)
let percentile (cell : hcell) q =
  if cell.samples = 0 then 0.
  else begin
    let target = Float.max 1. (Float.round (q *. float_of_int cell.samples)) in
    let acc = ref 0. in
    let result = ref cell.max_ns in
    (try
       for i = 0 to 63 do
         acc := !acc +. float_of_int cell.buckets.(i);
         if !acc >= target then begin
           result := 1.5 *. Float.pow 2. (float_of_int i);
           raise Exit
         end
       done
     with Exit -> ());
    Float.min !result cell.max_ns
  end

let stats_of_hcell (cell : hcell) =
  {
    samples = cell.samples;
    sum_ns = cell.sum_ns;
    mean_ns =
      (if cell.samples = 0 then 0.
       else cell.sum_ns /. float_of_int cell.samples);
    p50_ns = percentile cell 0.50;
    p90_ns = percentile cell 0.90;
    p99_ns = percentile cell 0.99;
    p999_ns = percentile cell 0.999;
    max_ns = cell.max_ns;
  }

let histogram_stats h = locked (fun () -> stats_of_hcell (merged_hcell h))

let by_name name_of l =
  List.sort (fun a b -> String.compare (name_of a) (name_of b)) l

let counters () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ c acc ->
          let v =
            List.fold_left
              (fun acc s ->
                if c.c_id < Array.length s.counts then acc + s.counts.(c.c_id)
                else acc)
              0 !shards
          in
          (c.c_name, v) :: acc)
        counters_tbl []
      |> by_name fst)

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ h acc -> (h.h_name, stats_of_hcell (merged_hcell h)) :: acc)
        histograms_tbl []
      |> by_name fst)

(* An epoch is a merged snapshot of every counter at a point in time;
   reads "since" it subtract the baseline, scoping counters to one run
   without zeroing the registry (which would destroy concurrent runs'
   numbers — the cross-run contamination the engine layer fixes). A
   counter registered after the epoch has baseline zero. *)
type epoch = int array

let epoch () =
  locked (fun () ->
      let a = Array.make !n_counters 0 in
      List.iter
        (fun s ->
          let n = min (Array.length s.counts) !n_counters in
          for i = 0 to n - 1 do
            a.(i) <- a.(i) + s.counts.(i)
          done)
        !shards;
      a)

let baseline e id = if id < Array.length e then e.(id) else 0
let count_since e c = count c - baseline e c.c_id

let counters_since e =
  locked (fun () ->
      Hashtbl.fold
        (fun _ c acc ->
          let v =
            List.fold_left
              (fun acc s ->
                if c.c_id < Array.length s.counts then acc + s.counts.(c.c_id)
                else acc)
              0 !shards
          in
          let d = v - baseline e c.c_id in
          if d = 0 then acc else (c.c_name, d) :: acc)
        counters_tbl []
      |> by_name fst)
