(* The evaluation's scheduler line-up, expressed as engine specs: every
   configuration here is an ordinary {!Engine.Stack.spec}, so anything
   the experiments run can also be run by the bench, the serving sweep
   or the fault driver with identical construction. *)

let spec = Engine.Stack.default
let build s = (Engine.Stack.build s).Engine.Stack.scheduler
let gokube () = build { spec with kind = Engine.Stack.Gokube }

let firmament ?solver cost_model ~reschd =
  build { spec with kind = Engine.Stack.Firmament; cost_model; reschd; solver }

let medea ~a ~b ~c =
  build
    { spec with kind = Engine.Stack.Medea; medea_a = a; medea_b = b; medea_c = c }

let aladdin ?base ?(il = true) ?(dl = true) () =
  build { spec with kind = Engine.Stack.Aladdin; il; dl; weight_base = base }

let descriptions =
  [
    ("Firmament-TRIVIAL", "Containers always scheduled if resources are idle.");
    ("Firmament-QUINCY", "Original Quincy cost model, lower cost priority.");
    ("Firmament-OCTOPUS", "Simple load balancing based on container counts.");
    ("Medea", "Balance resource efficiency and constraint violations.");
    ("Go-Kube", "Scoring machines and choose the best one.");
    ("Aladdin", "Optimized maximum flow with nonlinear capacities (this work).");
    ( "Cells",
      "Aladdin sharded over rack-aligned cells, one solver domain each." );
  ]
