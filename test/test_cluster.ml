(* Tests for the cluster model: resources, machines, constraints, the
   Eq. 8 blacklist and the mutable cluster state. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_container ?(id = 0) ?(app = 0) ?(priority = 0) ?(arrival = 0) cpu =
  Container.make ~id ~app ~demand:(Resource.cpu_only cpu) ~priority ~arrival

(* ---------- resources ---------- *)

let test_resource_make () =
  let r = Resource.make ~cpu:2.5 ~mem_gb:4. in
  check (Alcotest.float 1e-9) "cpu" 2.5 (Resource.cpu r);
  check (Alcotest.float 1e-9) "mem" 4. (Resource.mem_gb r);
  check int "dims" 2 (Resource.dims r);
  let c = Resource.cpu_only 1.5 in
  check int "cpu-only dims" 1 (Resource.dims c);
  Alcotest.check_raises "no mem dim"
    (Invalid_argument "Resource.mem_gb: no memory dimension") (fun () ->
      ignore (Resource.mem_gb c))

let test_resource_arith () =
  let a = Resource.of_array [| 4; 6 |] and b = Resource.of_array [| 1; 2 |] in
  Alcotest.(check (array int)) "add" [| 5; 8 |] (Resource.to_array (Resource.add a b));
  Alcotest.(check (array int)) "sub" [| 3; 4 |] (Resource.to_array (Resource.sub a b));
  check bool "fits" true (Resource.fits ~demand:b ~within:a);
  check bool "not fits" false (Resource.fits ~demand:a ~within:b);
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Resource.sub: negative result") (fun () ->
      ignore (Resource.sub b a));
  Alcotest.(check (array int)) "clamped" [| 0; 0 |]
    (Resource.to_array (Resource.sub_clamped b a));
  Alcotest.(check (array int)) "scale" [| 8; 12 |]
    (Resource.to_array (Resource.scale 2 a));
  check bool "equal" true (Resource.equal a (Resource.of_array [| 4; 6 |]));
  check bool "zero" true (Resource.is_zero (Resource.zero 2))

let test_resource_shares () =
  let cap = Resource.of_array [| 10; 100 |] in
  let d = Resource.of_array [| 5; 20 |] in
  check (Alcotest.float 1e-9) "dominant" 0.5
    (Resource.dominant_share ~demand:d ~capacity:cap);
  check (Alcotest.float 1e-9) "utilization" 0.35
    (Resource.utilization ~used:d ~capacity:cap)

let test_resource_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Resource.of_array: empty")
    (fun () -> ignore (Resource.of_array [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Resource.of_array: negative") (fun () ->
      ignore (Resource.of_array [| -1 |]))

(* ---------- topology ---------- *)

let test_topology () =
  let t =
    Topology.homogeneous ~machines_per_rack:4 ~racks_per_group:2
      ~n_machines:20 ~capacity:(Resource.cpu_only 32.) ()
  in
  check int "machines" 20 (Topology.n_machines t);
  check int "racks" 5 (Topology.n_racks t);
  check int "groups" 3 (Topology.n_groups t);
  check int "rack of 0" 0 (Topology.rack_of t 0);
  check int "rack of 7" 1 (Topology.rack_of t 7);
  check int "group of rack 4" 2 (Topology.group_of_rack t 4);
  Alcotest.(check (list int)) "machines of last rack" [ 16; 17; 18; 19 ]
    (Topology.machines_of_rack t 4);
  Alcotest.(check (list int)) "racks of group 2" [ 4 ] (Topology.racks_of_group t 2);
  Alcotest.check_raises "machine out of range"
    (Invalid_argument "Topology: machine out of range") (fun () ->
      ignore (Topology.rack_of t 20))

(* ---------- applications & constraint set ---------- *)

let apps_fixture () =
  [|
    Application.make ~id:0 ~n_containers:3 ~demand:(Resource.cpu_only 2.)
      ~anti_affinity_within:true ();
    Application.make ~id:1 ~n_containers:2 ~demand:(Resource.cpu_only 4.)
      ~priority:2 ~anti_affinity_across:[ 0 ] ();
    Application.make ~id:2 ~n_containers:1 ~demand:(Resource.cpu_only 1.) ();
  |]

let test_constraint_set () =
  let cs = Constraint_set.of_apps (apps_fixture ()) in
  check bool "anti within 0" true (Constraint_set.anti_within cs 0);
  check bool "no anti within 1" false (Constraint_set.anti_within cs 1);
  check bool "across symmetric 1-0" true (Constraint_set.conflict cs 1 0);
  check bool "across symmetric 0-1" true (Constraint_set.conflict cs 0 1);
  check bool "no conflict 1-2" false (Constraint_set.conflict cs 1 2);
  check bool "self conflict = within" true (Constraint_set.conflict cs 0 0);
  check bool "no self conflict" false (Constraint_set.conflict cs 2 2);
  Alcotest.(check (list int)) "conflicting of 0" [ 0; 1 ]
    (List.sort Int.compare (Constraint_set.conflicting_apps cs 0));
  check int "anti count" 2 (Constraint_set.n_with_anti_affinity cs);
  check int "priority count" 1 (Constraint_set.n_with_priority cs);
  Alcotest.(check (list int)) "classes" [ 0; 2 ]
    (Constraint_set.priority_classes cs)

let test_constraint_set_validation () =
  let bad =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 1.)
        ~anti_affinity_across:[ 9 ] ();
    |]
  in
  Alcotest.check_raises "dangling"
    (Invalid_argument "Constraint_set.of_apps: dangling across reference")
    (fun () -> ignore (Constraint_set.of_apps bad));
  let dup =
    [|
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 1.) ();
      Application.make ~id:0 ~n_containers:1 ~demand:(Resource.cpu_only 1.) ();
    |]
  in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Constraint_set.of_apps: duplicate app id") (fun () ->
      ignore (Constraint_set.of_apps dup))

let test_application_materialise () =
  let a =
    Application.make ~id:7 ~n_containers:3 ~demand:(Resource.cpu_only 2.)
      ~priority:1 ()
  in
  let cs = Application.containers a ~first_id:100 ~first_arrival:50 in
  check int "count" 3 (List.length cs);
  List.iteri
    (fun i (c : Container.t) ->
      check int "id" (100 + i) c.Container.id;
      check int "arrival" (50 + i) c.Container.arrival;
      check int "app" 7 c.Container.app;
      check int "priority" 1 c.Container.priority)
    cs

(* ---------- machine ---------- *)

let test_machine_lifecycle () =
  let m =
    Machine.create ~id:0 ~rack:0 ~group:0 ~capacity:(Resource.cpu_only 8.)
  in
  let c1 = mk_container ~id:1 ~app:3 4. in
  let c2 = mk_container ~id:2 ~app:3 4. in
  check bool "unused" false (Machine.is_used m);
  Machine.place m c1;
  Machine.place m c2;
  check int "containers" 2 (Machine.n_containers m);
  check int "app count" 2 (Machine.app_count m 3);
  check bool "full" false (Machine.fits m (Resource.cpu_only 1.));
  check (Alcotest.float 1e-9) "utilization" 1.0 (Machine.utilization m);
  Machine.remove m c1;
  check int "app count after remove" 1 (Machine.app_count m 3);
  check bool "fits again" true (Machine.fits m (Resource.cpu_only 4.));
  Alcotest.check_raises "double remove"
    (Invalid_argument "Machine.remove: container not deployed here") (fun () ->
      Machine.remove m c1);
  Alcotest.check_raises "over place"
    (Invalid_argument "Machine.place: demand exceeds free capacity") (fun () ->
      Machine.place m (mk_container ~id:9 8.))

(* ---------- cluster ---------- *)

let cluster_fixture () =
  let topo =
    Topology.homogeneous ~machines_per_rack:2 ~racks_per_group:2 ~n_machines:4
      ~capacity:(Resource.cpu_only 8.) ()
  in
  Cluster.create topo ~constraints:(Constraint_set.of_apps (apps_fixture ()))

let test_cluster_place_remove () =
  let cl = cluster_fixture () in
  let c0 = mk_container ~id:0 ~app:0 2. in
  let c1 = mk_container ~id:1 ~app:0 2. in
  Alcotest.(check bool) "place ok" true (Cluster.place cl c0 0 = Ok ());
  check int "placed" 1 (Cluster.n_placed cl);
  Alcotest.(check bool) "machine recorded" true (Cluster.machine_of cl 0 = Some 0);
  Alcotest.(check bool) "sibling blocked" true
    (Cluster.place cl c1 0 = Error (Cluster.Blacklisted 0));
  Alcotest.(check bool) "sibling ok elsewhere" true (Cluster.place cl c1 1 = Ok ());
  let b = mk_container ~id:2 ~app:1 4. in
  Alcotest.(check bool) "across blocked" true
    (Cluster.place cl b 0 = Error (Cluster.Blacklisted 0));
  Cluster.remove cl 0;
  Alcotest.(check bool) "unblocked after remove" true (Cluster.place cl b 0 = Ok ());
  check int "used machines" 2 (Cluster.used_machines cl)

let test_cluster_capacity_denial () =
  let cl = cluster_fixture () in
  let big = mk_container ~id:0 ~app:2 9. in
  Alcotest.(check bool) "no capacity" true
    (Cluster.place cl big 0 = Error Cluster.No_capacity);
  Alcotest.(check bool) "force cannot override capacity" true
    (Cluster.place ~force:true cl big 0 = Error Cluster.No_capacity)

let test_cluster_forced_violation () =
  let cl = cluster_fixture () in
  let c0 = mk_container ~id:0 ~app:0 2. in
  let c1 = mk_container ~id:1 ~app:1 2. in
  Alcotest.(check bool) "first" true (Cluster.place cl c0 0 = Ok ());
  Alcotest.(check bool) "forced" true (Cluster.place ~force:true cl c1 0 = Ok ());
  let v = Cluster.current_violations cl in
  check bool "violations detected" true (List.length v >= 1);
  check bool "anti-affinity kind" true (List.for_all Violation.is_anti_affinity v)

let test_cluster_reset () =
  let cl = cluster_fixture () in
  ignore (Cluster.place cl (mk_container ~id:0 ~app:2 1.) 0);
  ignore (Cluster.place cl (mk_container ~id:1 ~app:2 1.) 1);
  Cluster.reset cl;
  check int "no placements" 0 (Cluster.n_placed cl);
  check int "no used machines" 0 (Cluster.used_machines cl);
  check bool "blacklist cleared" true
    (Cluster.place cl (mk_container ~id:2 ~app:0 1.) 0 = Ok ())

(* ---------- violations ---------- *)

let test_violation_ratio () =
  let vs =
    [
      Violation.Anti_affinity { container = 0; machine = 0; against = 1 };
      Violation.Anti_affinity { container = 1; machine = 0; against = 1 };
      Violation.Priority_inversion { container = 2; displaced_by = 3 };
    ]
  in
  check int "anti count" 2 (Violation.count_anti_affinity vs);
  check int "prio count" 1 (Violation.count_priority vs);
  check (Alcotest.float 1e-9) "ratio" (2. /. 3.) (Violation.anti_affinity_ratio vs);
  check (Alcotest.float 1e-9) "empty ratio" 0. (Violation.anti_affinity_ratio []);
  check int "container accessor" 2 (Violation.container (List.nth vs 2))

(* ---------- property: admissible = recomputation from the deployed apps ---------- *)

(* The Eq. 7–8 verdict recomputed from first principles: offline or an
   unfit demand is [No_capacity]; otherwise the first deployed app, in
   [Machine.iter_apps] order, that conflicts with [app] blocks it. *)
let expected_verdict cl (c : Container.t) mid =
  let m = Cluster.machine cl mid in
  if Cluster.is_offline cl mid || not (Machine.fits m c.Container.demand) then
    Error Cluster.No_capacity
  else begin
    let against = ref None in
    Machine.iter_apps m (fun dep _ ->
        if
          !against = None
          && Constraint_set.conflict (Cluster.constraints cl) c.Container.app dep
        then against := Some dep);
    match !against with
    | Some a -> Error (Cluster.Blacklisted a)
    | None -> Ok ()
  end

(* Random histories of place, forced place, remove and offline toggles on
   small clusters with anti-within and across apps. Every history opens
   with the refcount case: two containers of anti-within app 0 forced
   onto machine 0, then one removed, which must leave app 0 and its
   across partners blocked there. After every step, every (machine, app)
   verdict of [Cluster.admissible] must equal the recomputation. *)
let prop_admissible_matches_recomputation =
  QCheck.Test.make ~count:300
    ~name:"admissible = recomputation from deployed apps"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n_apps = 5 in
      let apps =
        Array.init n_apps (fun i ->
            Application.make ~id:i ~n_containers:99
              ~demand:(Resource.cpu_only (float_of_int (1 + (i mod 3))))
              ~anti_affinity_within:(i = 0 || Rng.bool rng 0.4)
              ~anti_affinity_across:
                (List.filter (fun _ -> Rng.bool rng 0.4) (List.init i Fun.id))
              ())
      in
      let n_machines = 2 + Rng.int rng 4 in
      let cl =
        Cluster.create
          (Topology.homogeneous ~n_machines ~capacity:(Resource.cpu_only 8.) ())
          ~constraints:(Constraint_set.of_apps apps)
      in
      let probes =
        Array.init n_apps (fun app ->
            mk_container ~id:(-1 - app) ~app (float_of_int (1 + (app mod 3))))
      in
      let ok = ref true in
      let verify () =
        for mid = 0 to n_machines - 1 do
          Array.iter
            (fun c ->
              if Cluster.admissible cl c mid <> expected_verdict cl c mid then
                ok := false)
            probes
        done
      in
      let next = ref 0 in
      let fresh app =
        let c = mk_container ~id:!next ~app (float_of_int (1 + (app mod 3))) in
        incr next;
        c
      in
      let first = fresh 0 and second = fresh 0 in
      ignore (Cluster.place cl first 0);
      verify ();
      ignore (Cluster.place ~force:true cl second 0);
      verify ();
      Cluster.remove cl first.Container.id;
      verify ();
      if Cluster.admissible cl probes.(0) 0 <> Error (Cluster.Blacklisted 0)
      then ok := false;
      for _ = 1 to 40 do
        (match Rng.int rng 6 with
        | 0 | 1 ->
            ignore
              (Cluster.place cl (fresh (Rng.int rng n_apps)) (Rng.int rng n_machines))
        | 2 ->
            ignore
              (Cluster.place ~force:true cl (fresh (Rng.int rng n_apps))
                 (Rng.int rng n_machines))
        | 3 | 4 -> (
            match Cluster.placements cl with
            | [] -> ()
            | ps -> Cluster.remove cl (fst (List.nth ps (Rng.int rng (List.length ps)))))
        | _ ->
            let mid = Rng.int rng n_machines in
            Cluster.set_offline cl mid (not (Cluster.is_offline cl mid)));
        verify ()
      done;
      !ok)

(* ---------- model-based property: Cluster vs a naive reference ---------- *)

(* The reference keeps placements as a plain association list and
   recomputes everything from first principles. *)
module Reference = struct
  type t = {
    caps : Resource.t array;
    cs : Constraint_set.t;
    mutable placed : (Container.t * int) list;
  }

  let create caps cs = { caps; cs; placed = [] }

  let used_on t mid =
    List.fold_left
      (fun acc ((c : Container.t), m) ->
        if m = mid then Resource.add acc c.Container.demand else acc)
      (Resource.zero (Resource.dims t.caps.(0)))
      t.placed

  let admissible t (c : Container.t) mid =
    let fits =
      Resource.fits
        ~demand:(Resource.add (used_on t mid) c.Container.demand)
        ~within:t.caps.(mid)
    in
    let conflict =
      List.exists
        (fun ((b : Container.t), m) ->
          m = mid && Constraint_set.conflict t.cs c.Container.app b.Container.app)
        t.placed
    in
    fits && not conflict

  let place t c mid = t.placed <- (c, mid) :: t.placed

  let remove t cid =
    t.placed <-
      List.filter (fun ((c : Container.t), _) -> c.Container.id <> cid) t.placed

  let used_machines t =
    List.sort_uniq Int.compare (List.map snd t.placed) |> List.length
end

let model_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (triple (int_range 0 3) (int_range 0 3) (oneofl [ `Place; `Remove ])))

let prop_cluster_matches_reference =
  QCheck.Test.make ~count:150 ~name:"cluster agrees with naive reference"
    (QCheck.make model_ops_gen) (fun ops ->
      let apps =
        [|
          Application.make ~id:0 ~n_containers:99 ~demand:(Resource.cpu_only 3.)
            ~anti_affinity_within:true ();
          Application.make ~id:1 ~n_containers:99 ~demand:(Resource.cpu_only 2.)
            ~anti_affinity_across:[ 2 ] ();
          Application.make ~id:2 ~n_containers:99 ~demand:(Resource.cpu_only 5.) ();
          Application.make ~id:3 ~n_containers:99 ~demand:(Resource.cpu_only 1.) ();
        |]
      in
      let cs = Constraint_set.of_apps apps in
      let topo =
        Topology.homogeneous ~n_machines:4 ~capacity:(Resource.cpu_only 8.) ()
      in
      let cl = Cluster.create topo ~constraints:cs in
      let ref_model =
        Reference.create (Array.make 4 (Resource.cpu_only 8.)) cs
      in
      let next = ref 0 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (mid, app, op) ->
          match op with
          | `Place ->
              let c = mk_container ~id:!next ~app (float_of_int (1 + app)) in
              incr next;
              let expect = Reference.admissible ref_model c mid in
              let got = Cluster.place cl c mid = Ok () in
              if expect <> got then ok := false;
              if got then begin
                Reference.place ref_model c mid;
                live := c.Container.id :: !live
              end
          | `Remove -> (
              match !live with
              | [] -> ()
              | cid :: rest ->
                  Cluster.remove cl cid;
                  Reference.remove ref_model cid;
                  live := rest))
        ops;
      !ok
      && Cluster.used_machines cl = Reference.used_machines ref_model
      && Cluster.n_placed cl = List.length ref_model.Reference.placed)

(* ---------- marks and rollback ---------- *)

(* What a rollback must restore, as comparable values: the placement set,
   every machine's free vector and app counts, and the violations. *)
let cluster_state cl ~n_apps =
  let machines =
    Array.to_list (Cluster.machines cl)
    |> List.map (fun m ->
           ( Resource.to_array (Machine.free m),
             List.init n_apps (Machine.app_count m) ))
  in
  ( List.sort compare (Cluster.placements cl),
    machines,
    List.sort compare (Cluster.current_violations cl) )

(* Random histories under one or two nested marks, run on two identical
   clusters: one rolls back through its mutation log, the other is put
   back by [Ref_restore] (the full-snapshot restore the log replaced).
   Ops are placements (forced or not, new containers or earlier removed
   ones), removals, drains, revocations (offline, then drained, as every
   caller takes a machine down) and recoveries. Both clusters must agree
   after every rollback, on the state and on the drop count; the log is
   empty once the last mark is released. *)
let prop_rollback_matches_restore =
  QCheck.Test.make ~count:500 ~name:"rollback = snapshot restore"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n_apps = 4 in
      let apps =
        Array.init n_apps (fun i ->
            Application.make ~id:i ~n_containers:99
              ~demand:(Resource.cpu_only (float_of_int (1 + i)))
              ~anti_affinity_within:(Rng.bool rng 0.4)
              ~anti_affinity_across:
                (List.filter (fun _ -> Rng.bool rng 0.4) (List.init i Fun.id))
              ())
      in
      let n_machines = 2 + Rng.int rng 6 in
      let fresh () =
        Cluster.create
          (Topology.homogeneous ~n_machines ~capacity:(Resource.cpu_only 8.) ())
          ~constraints:(Constraint_set.of_apps apps)
      in
      let a = fresh () and b = fresh () in
      let both f = f a; f b in
      let next = ref 0 in
      let known = ref [] in
      let op () =
        match Rng.int rng 8 with
        | 0 | 1 | 2 ->
            let c =
              match !known with
              | _ :: _ when Rng.bool rng 0.3 ->
                  List.nth !known (Rng.int rng (List.length !known))
              | _ ->
                  let app = Rng.int rng n_apps in
                  let c =
                    mk_container ~id:!next ~app (float_of_int (1 + app))
                  in
                  incr next;
                  known := c :: !known;
                  c
            in
            let mid = Rng.int rng n_machines in
            let force = Rng.bool rng 0.3 in
            if Cluster.machine_of a c.Container.id = None then
              both (fun cl -> ignore (Cluster.place ~force cl c mid))
        | 3 | 4 -> (
            match Cluster.placements a with
            | [] -> ()
            | ps ->
                let cid, _ = List.nth ps (Rng.int rng (List.length ps)) in
                both (fun cl -> Cluster.remove cl cid))
        | 5 ->
            let mid = Rng.int rng n_machines in
            both (fun cl -> ignore (Cluster.drain cl mid))
        | 6 ->
            let mid = Rng.int rng n_machines in
            both (fun cl ->
                Cluster.set_offline cl mid true;
                ignore (Cluster.drain cl mid))
        | _ ->
            let mid = Rng.int rng n_machines in
            both (fun cl -> Cluster.set_offline cl mid false)
      in
      let ops n = for _ = 1 to n do op () done in
      let drops_a = ref 0 and drops_b = ref 0 in
      let agree () =
        cluster_state a ~n_apps = cluster_state b ~n_apps && !drops_a = !drops_b
      in
      let rollback m snap =
        Cluster.rollback a m ~on_drop:(fun () -> incr drops_a);
        Ref_restore.restore ~on_drop:(fun () -> incr drops_b) b snap
      in
      ops (Rng.int rng 20);
      let ok = ref true in
      let outer = Cluster.mark a in
      let outer_snap = Ref_restore.snapshot b in
      ops (Rng.int rng 15);
      if Rng.bool rng 0.5 then begin
        let inner = Cluster.mark a in
        let inner_snap = Ref_restore.snapshot b in
        ops (Rng.int rng 15);
        if Rng.bool rng 0.5 then begin
          rollback inner inner_snap;
          ok := !ok && agree ();
          ops (Rng.int rng 10)
        end;
        Cluster.release a inner
      end;
      rollback outer outer_snap;
      ok := !ok && agree ();
      (* the mark stays open: a second rollback to it is allowed *)
      if Rng.bool rng 0.5 then begin
        ops (Rng.int rng 10);
        rollback outer outer_snap;
        ok := !ok && agree ()
      end;
      Cluster.release a outer;
      !ok && Cluster.log_length a = 0)

(* With no mark open nothing is logged, and marks are checked. *)
let test_mark_log_scope () =
  let cl = cluster_fixture () in
  ignore (Cluster.place cl (mk_container ~id:0 ~app:2 1.) 0);
  check int "nothing logged outside a mark" 0 (Cluster.log_length cl);
  let m = Cluster.mark cl in
  ignore (Cluster.place cl (mk_container ~id:1 ~app:2 1.) 1);
  Cluster.remove cl 0;
  check int "logged under the mark" 2 (Cluster.log_length cl);
  let v = Cluster.version cl in
  Cluster.rollback cl m ~on_drop:(fun () -> Alcotest.fail "no drop expected");
  check bool "rollback bumps the version" true (Cluster.version cl > v);
  check int "rollback is not logged" 0 (Cluster.log_length cl);
  check bool "container 0 back" true (Cluster.machine_of cl 0 = Some 0);
  check bool "container 1 gone" true (Cluster.machine_of cl 1 = None);
  Cluster.release cl m;
  Alcotest.check_raises "release without a mark"
    (Invalid_argument "Cluster.release: mark is not open") (fun () ->
      Cluster.release cl m)

(* A machine cordoned (offline, not drained) before a batch keeps its
   containers when the batch is rolled back: the rollback touches only
   what the batch changed. *)
let test_rollback_keeps_cordoned_machine () =
  let cl = cluster_fixture () in
  ignore (Cluster.place cl (mk_container ~id:0 ~app:2 1.) 0);
  Cluster.set_offline cl 0 true;
  let m = Cluster.mark cl in
  ignore (Cluster.place cl (mk_container ~id:1 ~app:2 1.) 1);
  Cluster.rollback cl m ~on_drop:(fun () -> Alcotest.fail "no drop expected");
  Cluster.release cl m;
  check bool "cordoned machine keeps its container" true
    (Cluster.machine_of cl 0 = Some 0);
  check int "batch placement undone" 1 (Cluster.n_placed cl)

(* ---------- offline machines ---------- *)

let test_offline_machines () =
  let cl = cluster_fixture () in
  let c = mk_container ~id:0 ~app:2 1. in
  Cluster.set_offline cl 0 true;
  check bool "offline" true (Cluster.is_offline cl 0);
  Alcotest.(check bool) "offline rejects" true
    (Cluster.place cl c 0 = Error Cluster.No_capacity);
  Alcotest.(check bool) "other machines fine" true (Cluster.place cl c 1 = Ok ());
  Cluster.set_offline cl 0 false;
  Alcotest.(check bool) "back online" true
    (Cluster.place cl (mk_container ~id:1 ~app:2 1.) 0 = Ok ())

let test_drain () =
  let cl = cluster_fixture () in
  ignore (Cluster.place cl (mk_container ~id:0 ~app:2 1.) 0);
  ignore (Cluster.place cl (mk_container ~id:1 ~app:1 2.) 0);
  ignore (Cluster.place cl (mk_container ~id:2 ~app:2 1.) 1);
  let displaced = Cluster.drain cl 0 in
  check int "two displaced" 2 (List.length displaced);
  check int "machine empty" 0 (Machine.n_containers (Cluster.machine cl 0));
  check int "other machine untouched" 1 (Machine.n_containers (Cluster.machine cl 1))

let test_heterogeneous_topology () =
  let topo =
    Topology.heterogeneous
      ~capacities:[| Resource.cpu_only 8.; Resource.cpu_only 32. |]
      ()
  in
  check bool "not homogeneous" false (Topology.is_homogeneous topo);
  check bool "per-machine capacity" true
    (Resource.cpu (Topology.capacity topo 0) = 8.
    && Resource.cpu (Topology.capacity topo 1) = 32.);
  Alcotest.check_raises "empty"
    (Invalid_argument "Topology.heterogeneous: no machines") (fun () ->
      ignore (Topology.heterogeneous ~capacities:[||] ()));
  Alcotest.check_raises "mismatched dims"
    (Invalid_argument "Topology.heterogeneous: mismatched dimensions")
    (fun () ->
      ignore
        (Topology.heterogeneous
           ~capacities:[| Resource.cpu_only 8.; Resource.make ~cpu:8. ~mem_gb:1. |]
           ()))

let () =
  Alcotest.run "cluster_model"
    [
      ( "resource",
        [
          Alcotest.test_case "make" `Quick test_resource_make;
          Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "shares" `Quick test_resource_shares;
          Alcotest.test_case "validation" `Quick test_resource_validation;
        ] );
      ("topology", [ Alcotest.test_case "layout" `Quick test_topology ]);
      ( "constraints",
        [
          Alcotest.test_case "conflict queries" `Quick test_constraint_set;
          Alcotest.test_case "validation" `Quick test_constraint_set_validation;
          Alcotest.test_case "materialise containers" `Quick
            test_application_materialise;
        ] );
      ("machine", [ Alcotest.test_case "lifecycle" `Quick test_machine_lifecycle ]);
      ( "cluster",
        [
          Alcotest.test_case "place/remove" `Quick test_cluster_place_remove;
          Alcotest.test_case "capacity denial" `Quick test_cluster_capacity_denial;
          Alcotest.test_case "forced violation" `Quick test_cluster_forced_violation;
          Alcotest.test_case "reset" `Quick test_cluster_reset;
        ] );
      ("violations", [ Alcotest.test_case "ratio" `Quick test_violation_ratio ]);
      ( "availability",
        [
          Alcotest.test_case "offline machines" `Quick test_offline_machines;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "heterogeneous topology" `Quick
            test_heterogeneous_topology;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_admissible_matches_recomputation;
          QCheck_alcotest.to_alcotest prop_cluster_matches_reference;
          Alcotest.test_case "mark log scope" `Quick test_mark_log_scope;
          Alcotest.test_case "rollback keeps a cordoned machine" `Quick
            test_rollback_keeps_cordoned_machine;
          QCheck_alcotest.to_alcotest prop_rollback_matches_restore;
        ] );
    ]
