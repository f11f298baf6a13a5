(** Placement constraints of a workload, indexed for O(1) conflict queries.

    Anti-affinity is the symmetric relation "may not share a machine":
    within an app (reliability, §II.A) or across two apps (interference).
    The set also records each app's priority class. *)

type t

val of_apps : Application.t array -> t
(** Builds the symmetric closure of all across-app declarations. Unknown
    app ids inside [anti_affinity_across] lists are rejected.
    @raise Invalid_argument on dangling references or duplicate app ids. *)

val n_apps : t -> int
val app : t -> Application.id -> Application.t
val apps : t -> Application.t array

val anti_within : t -> Application.id -> bool

val conflict : t -> Application.id -> Application.id -> bool
(** [conflict t a b] for [a <> b]: the two apps may not colocate.
    [conflict t a a]: containers of [a] may not colocate (anti-within). *)

val across_of : t -> Application.id -> Application.id list
(** Apps in across-app conflict with [a] (never [a] itself). Symmetric:
    [b] is in [across_of t a] iff [a] is in [across_of t b]. *)

val conflicting_apps : t -> Application.id -> Application.id list
(** Apps in conflict with [a], including [a] itself when anti-within. *)

val priority : t -> Application.id -> int

val priority_classes : t -> int list
(** Distinct priority classes, ascending. *)

val n_with_anti_affinity : t -> int
val n_with_priority : t -> int
(** Workload statistics (Fig. 8(b)). *)
