(** LIFO stacks encoded over shared objects, with a two-stack atomic
    pop-push (the classic "move between stacks" operation). *)

open Mmc_core
open Mmc_store

let push s v =
  Prog.mprog ~label:("push(x" ^ string_of_int s ^ ")") ~may_write:[ s ]
    (Prog.read s (fun cur ->
         let items = Value.to_list cur in
         Prog.write s (Value.List (v :: items)) (Prog.return Value.Unit)))

(** Pop; returns [Pair (Bool true, item)] or [Pair (Bool false, Unit)]
    when empty. *)
let pop s =
  Prog.mprog ~label:("pop(x" ^ string_of_int s ^ ")") ~may_write:[ s ]
    (Prog.read s (fun cur ->
         match Value.to_list cur with
         | [] -> Prog.return (Value.Pair (Value.Bool false, Value.Unit))
         | item :: rest ->
           Prog.write s (Value.List rest)
             (Prog.return (Value.Pair (Value.Bool true, item)))))

(** Atomically pop from [src] and push onto [dst]. *)
let move ~src ~dst =
  Prog.mprog
    ~label:("smove(x" ^ string_of_int src ^ "->x" ^ string_of_int dst ^ ")")
    ~may_write:[ src; dst ]
    (Prog.read src (fun s ->
         match Value.to_list s with
         | [] -> Prog.return (Value.Bool false)
         | item :: rest ->
           Prog.read dst (fun d ->
               Prog.write src (Value.List rest)
                 (Prog.write dst
                    (Value.List (item :: Value.to_list d))
                    (Prog.return (Value.Bool true))))))

let depth s =
  Prog.mprog ~label:("sdepth(x" ^ string_of_int s ^ ")") ~may_touch:[ s ]
    ~may_write:[]
    (Prog.read s (fun cur ->
         Prog.return (Value.Int (List.length (Value.to_list cur)))))
