(** Integer counters over registers (fetch-and-add style). *)

open Mmc_core
open Mmc_store

(** Atomically add [delta] to the counter at [x], returning the old
    value (fetch-and-add). *)
let fetch_and_add x delta =
  Prog.mprog
    ~label:("faa(x" ^ string_of_int x ^ "," ^ string_of_int delta ^ ")")
    ~may_write:[ x ]
    (Prog.read x (fun v ->
         let n = Value.to_int v in
         Prog.write x (Value.Int (n + delta)) (Prog.return (Value.Int n))))

let incr x = fetch_and_add x 1

(** Read the counter. *)
let get x =
  Prog.mprog ~label:("get(x" ^ string_of_int x ^ ")") ~may_touch:[ x ]
    ~may_write:[]
    (Prog.read x Prog.return)

(** Atomically transfer [delta] between two counters (decrement one,
    increment the other) — conserves the total, which the audit
    experiments check. *)
let move ~src ~dst delta =
  Prog.mprog
    ~label:("move(x" ^ string_of_int src ^ "->x" ^ string_of_int dst ^ ","
       ^ string_of_int delta ^ ")")
    ~may_write:[ src; dst ]
    (Prog.read src (fun vs ->
         Prog.read dst (fun vd ->
             Prog.write src
               (Value.Int (Value.to_int vs - delta))
               (Prog.write dst
                  (Value.Int (Value.to_int vd + delta))
                  (Prog.return Value.Unit)))))
