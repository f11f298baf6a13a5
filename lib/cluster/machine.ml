type id = int

type t = {
  id : id;
  rack : int;
  group : int;
  capacity : Resource.t;
  mutable free : Resource.t;
  deployed : (Container.id, Container.t) Hashtbl.t;
  app_counts : (Application.id, int) Hashtbl.t;
}

let create ~id ~rack ~group ~capacity =
  {
    id;
    rack;
    group;
    capacity;
    free = capacity;
    deployed = Hashtbl.create 8;
    app_counts = Hashtbl.create 8;
  }

let id m = m.id
let rack m = m.rack
let group m = m.group
let capacity m = m.capacity
let free m = m.free
let used m = Resource.sub m.capacity m.free
let fits m demand = Resource.fits ~demand ~within:m.free

let place m (c : Container.t) =
  if Hashtbl.mem m.deployed c.Container.id then
    invalid_arg "Machine.place: container already deployed";
  if not (fits m c.Container.demand) then
    invalid_arg "Machine.place: demand exceeds free capacity";
  m.free <- Resource.sub m.free c.Container.demand;
  Hashtbl.replace m.deployed c.Container.id c;
  let app = c.Container.app in
  let n = Option.value ~default:0 (Hashtbl.find_opt m.app_counts app) in
  Hashtbl.replace m.app_counts app (n + 1)

let remove m (c : Container.t) =
  if not (Hashtbl.mem m.deployed c.Container.id) then
    invalid_arg "Machine.remove: container not deployed here";
  Hashtbl.remove m.deployed c.Container.id;
  m.free <- Resource.add m.free c.Container.demand;
  let app = c.Container.app in
  (match Hashtbl.find_opt m.app_counts app with
  | Some 1 -> Hashtbl.remove m.app_counts app
  | Some n -> Hashtbl.replace m.app_counts app (n - 1)
  | None -> assert false)

let n_containers m = Hashtbl.length m.deployed
let is_used m = n_containers m > 0
let containers m = Hashtbl.fold (fun _ c acc -> c :: acc) m.deployed []
let hosts m cid = Hashtbl.mem m.deployed cid
let app_count m app = Option.value ~default:0 (Hashtbl.find_opt m.app_counts app)
let hosts_app m app = Hashtbl.mem m.app_counts app
let iter_apps m f = Hashtbl.iter f m.app_counts
let utilization m = Resource.utilization ~used:(used m) ~capacity:m.capacity

let pp ppf m =
  Format.fprintf ppf "m%d(rack=%d,%d ctrs,free=%a)" m.id m.rack
    (n_containers m) Resource.pp m.free
