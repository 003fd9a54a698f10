(** Execution histories: m-operations plus the reads-from relation
    (paper, Section 2.2).

    Slot 0 of every history is the imaginary initializing m-operation;
    reads-from is stored at (reader, object, writer) granularity. *)

type rf_edge = {
  reader : Types.mop_id;
  obj : Types.obj_id;
  writer : Types.mop_id;
}

val equal_rf_edge : rf_edge -> rf_edge -> bool
val pp_rf_edge : Format.formatter -> rf_edge -> unit

type t

exception Ill_formed of string

(** [create ~n_objects mops ~rf] — builds a history from the real
    m-operations (ids must be [1 .. length mops] in list order; the
    initializer is added automatically) and reads-from triples.

    Raises {!Ill_formed} on: wrong identifiers, objects out of range,
    non-sequential process subhistories, or reads-from edges that are
    missing, duplicated, self-referential, value-inconsistent, for an
    object the reader does not read, or with a reader out of range.

    Cost: one stable sort of the n m-operation ids by (process,
    invocation) — O(n log n) — plus one pass over each reader's edges
    and external reads against four per-object arrays, and one scan of
    the writer's ops per edge ({!Mop.final_write_value}); it allocates
    the history's own arrays and edge lists, the sort's index array
    and those four arrays, and builds no hash table.  It accepts and
    rejects exactly the inputs the per-process-table version it
    replaced did, and for an input with one defect raises the same
    message, naming the same m-operation of an overlapping pair
    first. *)
val create : n_objects:int -> Mop.t list -> rf:rf_edge list -> t

val n_objects : t -> int

(** Number of m-operations including the initializer. *)
val n_mops : t -> int

val mop : t -> Types.mop_id -> Mop.t

(** All m-operations including the initializer, indexed by id. *)
val mops : t -> Mop.t array

(** Real m-operations (excluding the initializer). *)
val real_mops : t -> Mop.t list

val rf : t -> rf_edge list

(** A reader's reads-from triples in {!rf} order, from an index built
    once by {!create}; [[]] for an id outside the history. *)
val rf_of_reader : t -> Types.mop_id -> rf_edge list

(** [rfobjects t a b] — objects that [a] reads from [b] (D 4.3). *)
val rfobjects : t -> Types.mop_id -> Types.mop_id -> Types.obj_id list

val procs : t -> Types.proc_id list

(** Process-order edges (consecutive pairs per process, plus the
    initializer before everything). *)
val proc_order_edges : t -> (Types.mop_id * Types.mop_id) list

(** Reads-from edges at m-operation granularity (deduplicated). *)
val rf_mop_edges : t -> (Types.mop_id * Types.mop_id) list

(** Real-time order [~t]: all pairs with [resp a < inv b]. *)
val rt_edges : t -> (Types.mop_id * Types.mop_id) list

(** Object order [~X]: real-time pairs sharing an object. *)
val obj_edges : t -> (Types.mop_id * Types.mop_id) list

(** The consistency conditions differ in which extra ordering [~H]
    carries beyond process order and reads-from (Section 2.3). *)
type flavour =
  | Msc  (** m-sequential consistency *)
  | Mnorm  (** m-normality: + object order *)
  | Mlin  (** m-linearizability: + real-time order *)

val pp_flavour : Format.formatter -> flavour -> unit

(** Edges of the base relation [~H] of the given flavour, as a stream
    (initializer-first, process order, reads-from, flavour extras) —
    what {!base_relation} materializes.  For callers maintaining a
    transitive closure incrementally over a growing trace. *)
val base_edges : t -> flavour -> (Types.mop_id * Types.mop_id) list

(** Base relation [~H] of the given flavour (not transitively
    closed). *)
val base_relation : t -> flavour -> Relation.t

(** Infer reads-from from values — possible only when each external
    read's value identifies a unique final writer. *)
val infer_rf : n_objects:int -> Mop.t list -> (rf_edge list, string) result

(** Build a history inferring reads-from from (unique) values; raises
    {!Ill_formed} on ambiguity. *)
val of_mops : n_objects:int -> Mop.t list -> t

(** Restrict to a subset of m-operation ids (initializer kept, dense
    renumbering in id order); returns the restricted history and the
    old→new id mapping.  Raises {!Ill_formed} if a kept reader reads
    from a dropped writer. *)
val restrict : t -> Types.mop_id list -> t * (Types.mop_id, Types.mop_id) Hashtbl.t

val pp : Format.formatter -> t -> unit
