(** m-operations: operations spanning multiple objects.

    An m-operation is a sequence of read/write operations, possibly on
    different objects, executed by one process between an invocation
    event and a response event (paper, Section 2.1).

    Reads of an object preceded, inside the same m-operation, by a
    write to that object are {e internal}: they are constrained to
    return the internally written value and do not participate in the
    reads-from relation (the paper ignores them, Section 2.2).
    Likewise only the {e final} write per object is externally visible:
    no other m-operation may read an overwritten internal write. *)

type t = {
  id : Types.mop_id;
  proc : Types.proc_id;
  ops : Op.t list;  (** in program order *)
  inv : Types.time;  (** invocation event time *)
  resp : Types.time;  (** response event time *)
}
[@@deriving eq]

let make ~id ~proc ~ops ~inv ~resp =
  if resp < inv then
    invalid_arg
      (Fmt.str "Mop.make: response %d precedes invocation %d" resp inv);
  { id; proc; ops; inv; resp }

(* Sorted, de-duplicated list of object ids. *)
let sort_uniq_objs objs = List.sort_uniq compare objs

(** All objects touched by the m-operation, [objects(a)]. *)
let objects t = sort_uniq_objs (List.map Op.obj t.ops)

(** Objects read, [robjects(a)]. *)
let robjects t =
  sort_uniq_objs
    (List.filter_map
       (function Op.Read (x, _) -> Some x | Op.Write _ -> None)
       t.ops)

(** Objects written, [wobjects(a)]. *)
let wobjects t =
  sort_uniq_objs
    (List.filter_map
       (function Op.Write (x, _) -> Some x | Op.Read _ -> None)
       t.ops)

(** An m-operation is an update iff it writes to some object. *)
let is_update t = wobjects t <> []

(** An m-operation is a query iff it is not an update. *)
let is_query t = not (is_update t)

(* Whether object [x] is in [xs]: an int comparison, not [List.mem]'s
   polymorphic one. *)
let rec mem_obj (x : Types.obj_id) = function
  | [] -> false
  | y :: rest -> y = x || mem_obj x rest

(** First read of each object that is not preceded by a write to that
    object in the same m-operation, with the value read.  These are
    exactly the reads subject to the reads-from relation and legality:
    an object's external read, if any, is the m-operation's first op on
    it. *)
let external_reads t =
  let rec go touched acc = function
    | [] -> List.rev acc
    | op :: rest ->
      let x = Op.obj op in
      if mem_obj x touched then go touched acc rest
      else
        go (x :: touched)
          (match op with Op.Read (_, v) -> (x, v) :: acc | Op.Write _ -> acc)
          rest
  in
  go [] [] t.ops

(** Last write per object, with the value written: the externally
    visible writes of the m-operation, by ascending object
    ({!Op.final_writes}). *)
let final_writes t = Op.final_writes t.ops

(** Value of the final write of [t] to object [x], if any: one scan of
    [t.ops]. *)
let final_write_value t x = Op.last_write t.ops x

(** Two distinct m-operations conflict iff one reads or writes an
    object the other writes (D 4.1). *)
let conflict a b =
  a.id <> b.id
  &&
  let inter xs ys = List.exists (fun x -> List.mem x ys) xs in
  inter (objects a) (wobjects b) || inter (wobjects a) (objects b)

(** Real-time precedence [a ~t b]: response of [a] before invocation of
    [b]. *)
let rt_precedes a b = a.resp < b.inv

(** Object-order precedence [a ~X b]: real-time precedence between
    m-operations sharing an object (used by m-normality). *)
let obj_precedes a b =
  rt_precedes a b
  && List.exists (fun x -> List.mem x (objects b)) (objects a)

let pp ppf t =
  Fmt.pf ppf "@[<h>#%d@@P%d[%d,%d]: %a@]" t.id t.proc t.inv t.resp
    (Fmt.list ~sep:Fmt.sp Op.pp)
    t.ops

let show t = Fmt.str "%a" pp t

(** The imaginary initializing m-operation writing [Value.initial] to
    every object (paper, Section 2.1). *)
let initializer_ ~n_objects =
  let ops = List.init n_objects (fun x -> Op.write x Value.initial) in
  {
    id = Types.init_mop;
    proc = Types.init_proc;
    ops;
    inv = Types.init_time;
    resp = Types.init_time;
  }
