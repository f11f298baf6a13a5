(* Flat native-int Bigarray vectors for the solver hot paths.

   [Bigarray.int] cells are unboxed native (63-bit) integers stored outside
   the OCaml heap: reading or writing one never allocates and never creates
   GC work, unlike the int32/int64 kinds (boxed per access without flambda)
   and unlike growing OCaml arrays (minor-heap churn + copying collector
   traffic). Every long-lived label/CSR array in this library lives here so
   the solvers' phase loops allocate zero words. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create ?(fill = 0) n : t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 0 n) in
  Bigarray.Array1.fill a fill;
  a

let empty : t = create 0
let length (a : t) = Bigarray.Array1.dim a

let fill_range (a : t) pos len v =
  if len > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub a pos len) v

let blit (src : t) spos (dst : t) dpos len =
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src spos len)
      (Bigarray.Array1.sub dst dpos len)

(* [ensure a n ~fill] returns [a] when it is already large enough, otherwise
   a geometrically grown copy with the new tail set to [fill]. The contents
   of the surviving prefix are preserved, so workspaces can grow lazily
   without resetting their footprint bookkeeping. *)
let ensure (a : t) n ~fill =
  let len = length a in
  if len >= n then a
  else begin
    let b = create ~fill (max n (2 * len)) in
    blit a 0 b 0 len;
    b
  end

let of_array (src : int array) : t =
  let n = Array.length src in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- src.(i)
  done;
  a

let to_array (a : t) = Array.init (length a) (fun i -> a.{i})
