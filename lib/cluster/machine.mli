(** Runtime state of one machine: capacity, free resources and the deployed
    container set (the MM-side status of Fig. 2: p_m, d_m, c_m, r_m, g_m). *)

type id = int

type t

val create : id:id -> rack:int -> group:int -> capacity:Resource.t -> t
val id : t -> id
val rack : t -> int
val group : t -> int
val capacity : t -> Resource.t
val free : t -> Resource.t
val used : t -> Resource.t

val fits : t -> Resource.t -> bool
(** Pointwise demand ≤ free. *)

val place : t -> Container.t -> unit
(** @raise Invalid_argument if the demand does not fit. *)

val remove : t -> Container.t -> unit
(** @raise Invalid_argument if the container is not deployed here. *)

val n_containers : t -> int
val is_used : t -> bool
val containers : t -> Container.t list
val hosts : t -> Container.id -> bool
val app_count : t -> Application.id -> int
(** Deployed containers of a given app on this machine. *)

val hosts_app : t -> Application.id -> bool
(** [app_count m app > 0], without allocating. *)

val iter_apps : t -> (Application.id -> int -> unit) -> unit
val utilization : t -> float
val pp : Format.formatter -> t -> unit
