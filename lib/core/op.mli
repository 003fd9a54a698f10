(** Primitive operations on single objects.

    An m-operation is a sequence of these (paper, Section 2.1).  A
    write [w(x)v] defines a new value [v] for object [x]; a read
    [r(x)v] returns the value [v] of [x]. *)

type t =
  | Read of Types.obj_id * Value.t  (** [r(x)v] *)
  | Write of Types.obj_id * Value.t  (** [w(x)v] *)

val equal : t -> t -> bool
val compare : t -> t -> int

val obj : t -> Types.obj_id
val value : t -> Value.t
val is_read : t -> bool
val is_write : t -> bool

val read : Types.obj_id -> Value.t -> t
val write : Types.obj_id -> Value.t -> t

(** Value of the last write of an object in a sequence of operations,
    if any — one scan of the list, O(length). *)
val last_write : t list -> Types.obj_id -> Value.t option

(** Last write per object in a sequence of operations, with the value
    written, in ascending object order: the externally visible writes
    of an m-operation.  Builds no table and sorts nothing: O(length)
    when the objects are written in ascending order, O(length × written
    objects) at worst. *)
val final_writes : t list -> (Types.obj_id * Value.t) list

val pp : Format.formatter -> t -> unit
val show : t -> string
