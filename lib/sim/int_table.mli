(** Hash tables keyed by ints: sequence numbers, log positions and
    other counters issued in order, on the per-message path of the
    reliable wire and the recoverable store.

    The hash is the key's low bits, so a table of consecutive keys
    fills its buckets evenly, and a lookup calls neither the
    polymorphic hash nor the polymorphic compare.  Each key has at
    most one binding ({!replace} only).  Iteration order is the bucket
    order: no caller may let it reach an output. *)

type 'a t

(** An empty table sized for about [n] bindings. *)
val create : int -> 'a t

val length : 'a t -> int

(** Empty the table and shrink it back to its initial size. *)
val reset : 'a t -> unit

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** Bind the key, replacing its binding if it has one. *)
val replace : 'a t -> int -> 'a -> unit

(** Drop the key's binding, if any. *)
val remove : 'a t -> int -> unit

(** Fold over the bindings in bucket order. *)
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Keep the bindings [f] maps to [Some], with the new data. *)
val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit

val copy : 'a t -> 'a t
