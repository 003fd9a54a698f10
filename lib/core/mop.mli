(** m-operations: operations spanning multiple objects.

    An m-operation is a sequence of read/write operations, possibly on
    different objects, executed by one process between an invocation
    event and a response event (paper, Section 2.1). *)

type t = {
  id : Types.mop_id;
  proc : Types.proc_id;
  ops : Op.t list;  (** in program order *)
  inv : Types.time;  (** invocation event time *)
  resp : Types.time;  (** response event time *)
}

val equal : t -> t -> bool

(** Raises [Invalid_argument] if [resp < inv]. *)
val make :
  id:Types.mop_id ->
  proc:Types.proc_id ->
  ops:Op.t list ->
  inv:Types.time ->
  resp:Types.time ->
  t

(** All objects touched, [objects(a)] (sorted, unique). *)
val objects : t -> Types.obj_id list

(** Objects read, [robjects(a)]. *)
val robjects : t -> Types.obj_id list

(** Objects written, [wobjects(a)]. *)
val wobjects : t -> Types.obj_id list

(** An m-operation is an update iff it writes to some object. *)
val is_update : t -> bool

(** An m-operation is a query iff it is not an update. *)
val is_query : t -> bool

(** First read of each object not preceded by a write to that object
    in the same m-operation, with the value read — the reads subject to
    the reads-from relation and legality (internal reads are ignored,
    paper Section 2.2).  An object's external read is the m-operation's
    first op on it: one pass over the ops with integer comparisons,
    O(ops × objects touched). *)
val external_reads : t -> (Types.obj_id * Value.t) list

(** Last write per object, with the value written: the externally
    visible writes, in ascending object order.  Builds no table and
    sorts nothing: O(ops) when the m-operation writes its objects in
    ascending order (the initializer, an epoch summary), O(ops ×
    written objects) at worst, allocating only the result and one
    reversed copy of the ops.  Returns the same list as the
    table-and-sort version it replaced. *)
val final_writes : t -> (Types.obj_id * Value.t) list

(** Value of the final write to an object, if any: one scan of the
    ops, O(ops), allocating only the result — no per-call table.
    Returns the same value as [List.assoc_opt x (final_writes t)]. *)
val final_write_value : t -> Types.obj_id -> Value.t option

(** Conflict (D 4.1): distinct and one reads or writes an object the
    other writes. *)
val conflict : t -> t -> bool

(** Real-time precedence [a ~t b]: [resp a < inv b]. *)
val rt_precedes : t -> t -> bool

(** Object-order precedence [a ~X b]: real-time precedence between
    m-operations sharing an object. *)
val obj_precedes : t -> t -> bool

val pp : Format.formatter -> t -> unit
val show : t -> string

(** The imaginary initializing m-operation writing [Value.initial] to
    every object (paper, Section 2.1). *)
val initializer_ : n_objects:int -> t
