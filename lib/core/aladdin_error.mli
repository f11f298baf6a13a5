(** Typed errors for the scheduler layer.

    The scheduler's hot path is imperative (it mutates the cluster as it
    augments), so recoverable failures travel as the single exception
    {!E} carrying a typed payload — callers catch exactly [E] (never a
    bare [exn]), roll the cluster back and reject the batch. *)

type t =
  | Placement_failed of { container : Container.id; machine : Machine.id }
      (** A placement the scheduler had established as admissible was
          denied — the cluster changed under the scheduler's feet. *)
  | Inventory_changed of string
      (** A sealed external inventory no longer matches the model. *)

exception E of t

val to_string : t -> string

val raise_error : t -> 'a
(** [raise_error e] raises [E e]. *)
