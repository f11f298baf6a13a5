type t =
  | Placement_failed of { container : Container.id; machine : Machine.id }
  | Inventory_changed of string

exception E of t

let to_string = function
  | Placement_failed { container; machine } ->
      Printf.sprintf "placement of container %d on machine %d denied"
        container machine
  | Inventory_changed msg -> "inventory changed: " ^ msg

let raise_error e = raise (E e)
