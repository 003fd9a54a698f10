(** Atomic m-register assignment and multi-register snapshot
    (paper, Section 1: "atomic m-register assignment"). *)

open Mmc_core
open Mmc_store

(* The objects of a list label, as [Fmt.str] has always printed them:
   its formatter breaks the line at the last break hint of the
   unclosed outer box, so a label of two or more objects reads
   "snapshot(0,\n1)".  [Classify] and the router match and suffix
   labels byte for byte, so these keep [Fmt.str]; no benchmark
   workload builds them. *)
let ints = Fmt.(list ~sep:comma int)

(** Atomically assign [v_i] to register [x_i] for every pair. *)
let assign pairs =
  let xs = List.map fst pairs in
  Prog.mprog
    ~label:(Fmt.str "massign(%a)" ints xs)
    ~may_write:xs (Prog.write_all pairs)

(** Atomically read registers [xs], returning their values as a list. *)
let snapshot xs =
  Prog.mprog
    ~label:(Fmt.str "snapshot(%a)" ints xs)
    ~may_touch:xs ~may_write:[]
    (Prog.read_all xs (fun vs -> Prog.return (Value.List vs)))

(** Atomic sum of integer registers — the motivating [sum] multi-method
    from the paper's introduction. *)
let sum xs =
  Prog.mprog
    ~label:(Fmt.str "sum(%a)" ints xs)
    ~may_touch:xs ~may_write:[]
    (Prog.read_all xs (fun vs ->
         let total = List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs in
         Prog.return (Value.Int total)))

(** Atomic swap of two registers — reads both then writes both, a
    read-dependent multi-object update. *)
let swap x y =
  Prog.mprog
    ~label:("swap(x" ^ string_of_int x ^ ",x" ^ string_of_int y ^ ")")
    ~may_write:[ x; y ]
    (Prog.read x (fun vx ->
         Prog.read y (fun vy ->
             Prog.write x vy (Prog.write y vx (Prog.return Value.Unit)))))
