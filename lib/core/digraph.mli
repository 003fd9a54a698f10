(** Sparse directed graphs over [0 .. n-1] (compressed rows): O(n + e)
    words where a dense {!Relation} costs n^2/63, for callers that need
    only successor lists and a topological order. *)

(** Successors of [i] are [dst.(off.(i)) .. dst.(off.(i+1) - 1)]; the
    tables may be longer than that (arena size classes). *)
type t = private { n : int; off : int array; dst : int array }

(** [of_iter n iter] — the graph of the edges [iter f] passes to [f].
    [iter] is called twice (count, then fill) and must replay the same
    edges.  Duplicate edges are kept (harmless to {!topo_sort}).  With
    [~arena] the row tables come from the arena's scratch free lists;
    hand them back with {!release}.  Raises [Invalid_argument] on an
    endpoint outside [0 .. n-1]. *)
val of_iter :
  ?arena:Relation.Arena.arena -> int -> ((int -> int -> unit) -> unit) -> t

(** [of_edges n edges] — {!of_iter} over a list. *)
val of_edges : ?arena:Relation.Arena.arena -> int -> (int * int) list -> t

(** Return the row tables to the arena they came from. *)
val release : ?arena:Relation.Arena.arena -> t -> unit

(** Kahn topological sort, smallest ready id first — the tie-break of
    {!Relation.topo_sort}, so both give the same order on the same
    edges.  [None] iff the graph is cyclic.  The working tables come
    from [~arena] when given; the returned order is fresh. *)
val topo_sort : ?arena:Relation.Arena.arena -> t -> int array option
