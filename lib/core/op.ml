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

let pp ppf = function
  | Read (x, v) -> Fmt.pf ppf "r(x%d)%a" x Value.pp_compact v
  | Write (x, v) -> Fmt.pf ppf "w(x%d)%a" x Value.pp_compact v

let show op = Fmt.str "%a" pp op
