(** The scheduler configurations used across the evaluation (Table I plus
    the parameter sweeps of Fig. 9), all built through {!Engine.Stack} so
    the experiments, bench and serving harnesses share one construction
    path. *)

val gokube : unit -> Scheduler.t

val firmament : ?solver:string -> Cost_model.t -> reschd:int -> Scheduler.t
(** [?solver] pins a {!Flownet.Registry} backend by name; the default
    follows [ALADDIN_SOLVER] (falling back to ["mincost"]). *)

val medea : a:float -> b:float -> c:float -> Scheduler.t
val aladdin : ?base:int -> ?il:bool -> ?dl:bool -> unit -> Scheduler.t

val descriptions : (string * string) list
(** Table I: name → one-line description. *)
