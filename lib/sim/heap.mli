(** Array-based binary min-heap (event-queue substrate).  Ties must be
    broken by the comparison itself for deterministic dequeue order. *)

type 'a t

val create : compare:('a -> 'a -> int) -> dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option

(** The minimum, without allocating; raises [Invalid_argument] on an
    empty heap. *)
val top : 'a t -> 'a
