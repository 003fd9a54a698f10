(** Primitive operations on single objects.

    An m-operation is a sequence of these (paper, Section 2.1).  A
    write [w(x)v] defines a new value [v] for object [x]; a read
    [r(x)v] returns the value [v] of [x]. *)

type t =
  | Read of Types.obj_id * Value.t  (** [r(x)v] *)
  | Write of Types.obj_id * Value.t  (** [w(x)v] *)
[@@deriving eq, ord]

let obj = function Read (x, _) | Write (x, _) -> x

let value = function Read (_, v) | Write (_, v) -> v

let is_read = function Read _ -> true | Write _ -> false

let is_write = function Write _ -> true | Read _ -> false

let read x v = Read (x, v)

let write x v = Write (x, v)

(** Value of the last write of [x] in [ops], if any: one scan, no
    table. *)
let last_write ops x =
  let rec scan found = function
    | [] -> found
    | Write (y, v) :: rest when y = x -> scan (Some v) rest
    | _ :: rest -> scan found rest
  in
  scan None ops

(** Last write per object, with the value written, by ascending object.
    The ops are walked backwards, so the first write met for an object
    is its last; it is inserted into the sorted result unless the object
    is already there.  Writes in ascending object order — the
    initializer, an epoch summary — each insert at the head in O(1). *)
let final_writes ops =
  let rec insert x v = function
    | (y, _) :: _ as l when x < y -> (x, v) :: l
    | ((y, _) as p) :: rest when x > y -> p :: insert x v rest
    | [] -> [ (x, v) ]
    | l -> l
  in
  List.fold_left
    (fun acc op -> match op with Write (x, v) -> insert x v acc | Read _ -> acc)
    [] (List.rev ops)

let pp ppf = function
  | Read (x, v) -> Fmt.pf ppf "r(x%d)%a" x Value.pp_compact v
  | Write (x, v) -> Fmt.pf ppf "w(x%d)%a" x Value.pp_compact v

let show op = Fmt.str "%a" pp op
