(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7): under OO or WW, admissibility is equivalent to
    legality, and a witness is any total extension of
    [(~H ∪ ~rw)+].  {!check_chains} decides it without a dense
    closure, on an input {!check_chain} builds from a history or a
    caller keeps itself (the windowed checker); the dense
    {!check_relation} / {!check_closed} / {!Incremental} stay as the
    reference oracle. *)

type result =
  | Admissible of Sequential.witness
  | Not_legal of Legality.triple
  | Constraint_violated  (** the history is not under the given constraint *)
  | Cyclic  (** [~H] itself is not an irreflexive partial order *)
  | Extended_cyclic
      (** impossible under OO/WW for a legal history (Lemmas 3–4) *)

val pp_result : Format.formatter -> result -> unit

(** [check_closed h closed kind] — like {!check_relation} over an
    already transitively closed relation; a cyclic [~H] is recognized
    by reflexive entries of the closure.  Entry point for callers that
    maintain the closure themselves (e.g. {!Incremental}). *)
val check_closed : History.t -> Relation.t -> Constraints.kind -> result

(** [check_relation h base kind] — decide admissibility with respect to
    the (not necessarily closed) relation [base], verifying constraint
    [kind] first.  Use when the synchronization order (e.g. the atomic
    broadcast order) is supplied as extra edges. *)
val check_relation : History.t -> Relation.t -> Constraints.kind -> result

(** [check h flavour kind] — over the base relation of the given
    consistency condition. *)
val check : History.t -> History.flavour -> Constraints.kind -> result

(** The input of the chain-decomposed check: a history below
    {!History.t}, as nodes [0 .. n-1] (node 0 is the initializer) on
    chains of process order, their object rows and their reads-from
    and extra edges.  Tables may be longer than they are used; the
    check reads them and keeps nothing.

    Invariants, which the check trusts and does not verify:
    - chains are numbered [0 .. C-1] and node 0 is first on chain 0;
      [idx.(v)] is [v]'s position on its chain, the positions of one
      chain are [0 .. len-1], and along a chain invocations and
      responses grow (each member responds before the next invokes);
    - [objs.(row.(v) .. tend.(v) - 1)] are the objects [v] touches,
      each once, and the first ones, up to [wend.(v)], are those it
      writes (node 0 writes every object);
    - edge [i < n_rf] says [rf_reader.(i)] reads object [rf_obj.(i)]
      from [rf_writer.(i)], which writes it; the legality scan visits
      the edges in index order, so the first violating one names the
      [Not_legal] triple;
    - [extra_src.(i) -> extra_dst.(i)] for [i < n_extra] are further
      edges of [~H] (e.g. the synchronization order); their order does
      not matter. *)
type chains = {
  n : int;  (** nodes, the initializer included *)
  n_objects : int;
  chain : int array;
  idx : int array;
  inv : Types.time array;
  resp : Types.time array;
  row : int array;
  wend : int array;
  tend : int array;
  objs : int array;
  n_rf : int;
  rf_reader : int array;
  rf_obj : int array;
  rf_writer : int array;
  n_extra : int;
  extra_src : int array;
  extra_dst : int array;
}

(** [check_chains c ~flavour kind] — the same verdict as
    {!check_relation} over [flavour]'s base relation of the history
    [c] describes, without a dense closure.  The check builds a sparse
    graph with the same transitive closure (process order, reads-from,
    the extra edges, and the flavour's real-time / object order
    reduced to the latest source per chain), a per-node frontier
    vector over the C chains, and decides constraint, legality
    (nearest interposing writer) and the [~rw] witness in
    O((n + e) . C).  [Not_legal] names the writer that follows the
    reads-from source in the object's writer chain.  With [~arena] the
    frontier and sort tables come from the arena's scratch lists and
    go back before returning.  No state outlives the call. *)
val check_chains :
  ?arena:Relation.Arena.arena ->
  chains ->
  flavour:History.flavour ->
  Constraints.kind ->
  result

(** [check_chain h ~flavour ~extra kind] — {!check_chains} on the
    input of [h] plus the [extra] edges: chains in order of first
    appearance (the initializer's first), members by invocation, each
    m-operation's written objects before the others it touches, and
    reads-from in {!History.rf} order. *)
val check_chain :
  ?arena:Relation.Arena.arena ->
  History.t ->
  flavour:History.flavour ->
  extra:(Types.mop_id * Types.mop_id) list ->
  Constraints.kind ->
  result

(** Incrementally closed relation for verifying a growing trace:
    stream edges in as m-operations complete; the transitive closure
    is maintained per edge ({!Relation.add_edge_closed}) so the final
    {!Incremental.check} never re-closes from scratch. *)
module Incremental : sig
  type t

  (** [create n] — empty (closed) relation over [0 .. n-1]. *)
  val create : int -> t

  val add_edge : t -> int -> int -> unit
  val add_edges : t -> (int * int) list -> unit

  (** The maintained transitive closure (shared, not a copy). *)
  val relation : t -> Relation.t

  val is_acyclic : t -> bool

  (** {!check_closed} on the maintained closure. *)
  val check : t -> History.t -> Constraints.kind -> result
end
