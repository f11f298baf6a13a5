type t = {
  apps : Application.t array;
  index : (Application.id, int) Hashtbl.t;   (* app id -> array slot *)
  across : (Application.id, Application.id list) Hashtbl.t; (* symmetric *)
}

let of_apps apps =
  let index = Hashtbl.create (Array.length apps) in
  Array.iteri
    (fun i (a : Application.t) ->
      if Hashtbl.mem index a.Application.id then
        invalid_arg "Constraint_set.of_apps: duplicate app id";
      Hashtbl.replace index a.Application.id i)
    apps;
  let across = Hashtbl.create 64 in
  let add_edge a b =
    let cur = Option.value ~default:[] (Hashtbl.find_opt across a) in
    if not (List.mem b cur) then Hashtbl.replace across a (b :: cur)
  in
  Array.iter
    (fun (a : Application.t) ->
      List.iter
        (fun b ->
          if not (Hashtbl.mem index b) then
            invalid_arg "Constraint_set.of_apps: dangling across reference";
          if b <> a.Application.id then begin
            add_edge a.Application.id b;
            add_edge b a.Application.id
          end)
        a.Application.anti_affinity_across)
    apps;
  { apps; index; across }

let n_apps t = Array.length t.apps

let app t id =
  match Hashtbl.find t.index id with
  | i -> t.apps.(i)
  | exception Not_found -> invalid_arg "Constraint_set.app: unknown id"

let apps t = t.apps
let anti_within t id = (app t id).Application.anti_affinity_within

let across_of t id =
  Option.value ~default:[] (Hashtbl.find_opt t.across id)

let conflict t a b =
  if a = b then anti_within t a else List.mem b (across_of t a)

let conflicting_apps t a =
  let others = across_of t a in
  if anti_within t a then a :: others else others

let priority t id = (app t id).Application.priority

let priority_classes t =
  Array.to_list t.apps
  |> List.map (fun (a : Application.t) -> a.Application.priority)
  |> List.sort_uniq Int.compare

let n_with_anti_affinity t =
  Array.fold_left
    (fun n (a : Application.t) ->
      if Application.has_anti_affinity a || across_of t a.Application.id <> []
      then n + 1
      else n)
    0 t.apps

let n_with_priority t =
  Array.fold_left
    (fun n a -> if Application.has_priority a then n + 1 else n)
    0 t.apps
