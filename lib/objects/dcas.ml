(** Double compare-and-swap — the paper's flagship multi-object
    operation (Section 1).

    [dcas x1 x2 ~old1 ~old2 ~new1 ~new2] atomically updates [x1] and
    [x2] to [new1], [new2] iff [x1] holds [old1] and [x2] holds [old2]
    at invocation; it returns [Bool true] on success.  The actual write
    set depends on the values read — precisely why write sets must be
    declared conservatively. *)

open Mmc_core
open Mmc_store

let dcas x1 x2 ~old1 ~old2 ~new1 ~new2 =
  let prog =
    Prog.read x1 (fun v1 ->
        Prog.read x2 (fun v2 ->
            if Value.equal v1 old1 && Value.equal v2 old2 then
              Prog.write x1 new1
                (Prog.write x2 new2 (Prog.return (Value.Bool true)))
            else Prog.return (Value.Bool false)))
  in
  Prog.mprog
    ~label:("dcas(x" ^ string_of_int x1 ^ ",x" ^ string_of_int x2 ^ ")")
    ~may_write:[ x1; x2 ] prog

(** Single-object compare-and-swap, for comparison experiments. *)
let cas x ~old_v ~new_v =
  let prog =
    Prog.read x (fun v ->
        if Value.equal v old_v then
          Prog.write x new_v (Prog.return (Value.Bool true))
        else Prog.return (Value.Bool false))
  in
  Prog.mprog ~label:("cas(x" ^ string_of_int x ^ ")") ~may_write:[ x ] prog

let succeeded = function
  | Value.Bool b -> b
  | v -> invalid_arg ("Dcas.succeeded: unexpected result " ^ Value.show v)
