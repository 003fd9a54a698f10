(** Plain read/write registers — the degenerate single-operation
    m-operations under which the model collapses to classical DSM. *)

open Mmc_core
open Mmc_store

(** [write x v] — a single-write m-operation. *)
let write x v =
  Prog.mprog ~label:("write(x" ^ string_of_int x ^ ")") ~may_write:[ x ]
    (Prog.write x v (Prog.return Value.Unit))

(** [read x] — a single-read m-operation returning the value. *)
let read x =
  Prog.mprog ~label:("read(x" ^ string_of_int x ^ ")") ~may_touch:[ x ]
    ~may_write:[]
    (Prog.read x Prog.return)
