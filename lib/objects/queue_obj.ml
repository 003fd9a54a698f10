(** FIFO queues encoded over shared objects.

    A queue lives in a single object as a list value (the initial value
    [Int 0] doubles as the empty queue).  [transfer_front] moves the
    head of one queue to the back of another atomically — a genuinely
    multi-object queue operation impossible to express with unary
    methods. *)

open Mmc_core
open Mmc_store

let enqueue q v =
  Prog.mprog ~label:("enqueue(x" ^ string_of_int q ^ ")") ~may_write:[ q ]
    (Prog.read q (fun cur ->
         let items = Value.to_list cur in
         Prog.write q (Value.List (items @ [ v ])) (Prog.return Value.Unit)))

(** Dequeue; returns [Pair (Bool true, item)] or [Pair (Bool false,
    Unit)] when empty. *)
let dequeue q =
  Prog.mprog ~label:("dequeue(x" ^ string_of_int q ^ ")") ~may_write:[ q ]
    (Prog.read q (fun cur ->
         match Value.to_list cur with
         | [] -> Prog.return (Value.Pair (Value.Bool false, Value.Unit))
         | item :: rest ->
           Prog.write q (Value.List rest)
             (Prog.return (Value.Pair (Value.Bool true, item)))))

(** Atomically move the head of [src] to the back of [dst]. *)
let transfer_front ~src ~dst =
  Prog.mprog
    ~label:("qmove(x" ^ string_of_int src ^ "->x" ^ string_of_int dst ^ ")")
    ~may_write:[ src; dst ]
    (Prog.read src (fun s ->
         match Value.to_list s with
         | [] -> Prog.return (Value.Bool false)
         | item :: rest ->
           Prog.read dst (fun d ->
               let d_items = Value.to_list d in
               Prog.write src (Value.List rest)
                 (Prog.write dst
                    (Value.List (d_items @ [ item ]))
                    (Prog.return (Value.Bool true))))))

let length q =
  Prog.mprog ~label:("qlen(x" ^ string_of_int q ^ ")") ~may_touch:[ q ]
    ~may_write:[]
    (Prog.read q (fun cur ->
         Prog.return (Value.Int (List.length (Value.to_list cur)))))
