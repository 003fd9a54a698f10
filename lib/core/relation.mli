(** Dense binary relations over m-operation identifiers (word-packed
    bit-matrix representation: 63 adjacency bits per native int), with
    the closure / acyclicity / topological-sort operations the checkers
    need.  [union], [subset] and the Warshall closure are word-parallel;
    row iteration is allocation-free. *)

type t

(** [create n] — the empty relation over nodes [0 .. n-1]. *)
val create : int -> t

val size : t -> int

val copy : t -> t
val mem : t -> int -> int -> bool
val add : t -> int -> int -> unit
val remove : t -> int -> int -> unit
val add_edges : t -> (int * int) list -> unit
val of_edges : int -> (int * int) list -> t

(** Union of two same-size relations (fresh). *)
val union : t -> t -> t

val subset : t -> t -> bool
val equal : t -> t -> bool
val iter_edges : t -> (int -> int -> unit) -> unit
val edges : t -> (int * int) list
val cardinal : t -> int
val successors : t -> int -> int list
val predecessors : t -> int -> int list

(** Allocation-free row / column iteration, ascending. *)
val iter_successors : t -> int -> (int -> unit) -> unit

val iter_predecessors : t -> int -> (int -> unit) -> unit

(** Reusable scratch for the sparse checkers' per-call tables
    ({!Check_constrained.check_chain}, {!Digraph}, the windowed
    checker): free lists of word arrays keyed by length.
    Single-domain: keep an arena on the domain that runs the check. *)
module Arena : sig
  type arena

  val create : unit -> arena

  (** Free-list reuses / fresh allocations since creation. *)
  val hits : arena -> int

  val misses : arena -> int

  (** [scratch a len] — an int array of length {e at least} [len]
      (rounded up to a size class, so callers must carry the length
      they asked for) with arbitrary contents; hand it back with
      {!release}.  For the sparse checkers' per-call tables. *)
  val scratch : arena -> int -> int array

  val release : arena -> int array -> unit

  (** Words handed out by {!scratch} since creation: the difference
      across one call is the scratch that call took (and, if it hands
      everything back, recycled). *)
  val scratch_words : arena -> int

  (** [peak_during a f] — [f ()] and the most words [f] held from the
      arena at once (taken as {!scratch}, not yet handed back): a
      call's resident footprint, where {!scratch_words} counts an
      array again each time it is taken. *)
  val peak_during : arena -> (unit -> 'a) -> 'a * int
end

(** Warshall transitive closure (fresh copy; [_inplace] mutates). *)
val transitive_closure : t -> t

(** [closure_with t edges] — fresh closure of [t ∪ edges], [t] already
    closed; incremental per edge when the new edges are few. *)
val closure_with : t -> (int * int) list -> t

val transitive_closure_inplace : t -> unit

(** [add_edge_closed t i j] — [t] must already be transitively closed;
    adds the edge and restores closure incrementally in O(n . n/63)
    word operations, so a checker can follow a growing trace without
    re-closing from scratch.  A cycle introduced by the edge surfaces
    as reflexive entries (test with {!is_irreflexive}). *)
val add_edge_closed : t -> int -> int -> unit

(** A relation is a valid strict order iff acyclic. *)
val is_acyclic : t -> bool

val is_irreflexive : t -> bool

(** [total_on t ids] — are every two distinct members of [ids] ordered
    one way or the other?  Early exit at the first unordered pair. *)
val total_on : t -> int array -> bool

(** [total_between t xs ys] — is every pair of one member of [xs] and
    one distinct member of [ys] ordered? *)
val total_between : t -> int array -> int array -> bool

(** Kahn topological sort; [None] iff cyclic.  Deterministic (ties by
    smallest identifier). *)
val topo_sort : t -> int array option

(** Topological sort of a {e transitively closed} relation (the
    precondition is not checked), by descending successor count —
    O(n^2/63 + n log n), no frontier bookkeeping.  [None] iff a
    reflexive entry betrays a cycle.  Deterministic; the order may
    differ from {!topo_sort}'s. *)
val topo_sort_closed : t -> int array option

(** Is the permutation a linear extension of the relation? *)
val respects : t -> int array -> bool

(** Total order relation induced by a permutation. *)
val of_total_order : int array -> t

val pp : Format.formatter -> t -> unit

(** Word-packed bitsets over [0 .. n-1] — the matrix's row
    representation stand-alone, for callers tracking m-operation sets
    (e.g. {!Admissible}'s memoized placed sets). *)
module Bitset : sig
  type t

  val create : int -> t
  val length : t -> int
  val mem : t -> int -> bool
  val set : t -> int -> unit
  val clear : t -> int -> unit

  (** Append the raw words (8 bytes each) to a buffer: a compact
      hashable key. *)
  val add_to_buffer : t -> Buffer.t -> unit
end
