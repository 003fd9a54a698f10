(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7): under OO or WW, admissibility is equivalent to
    legality, and a witness is any total extension of
    [(~H ∪ ~rw)+].  {!check_chains} decides it without a dense
    closure, on an input {!chains_of} builds from a history or a
    caller keeps itself, and {!decide_chains} is its verdict without
    the witness (the windowed checker's); the dense
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

(** [admissible r] — [r] is {!Admissible}. *)
val admissible : result -> bool

(** [same_verdict a b] — [a] and [b] are the same verdict constructor.
    The chain and dense pipelines decide over the same closure but may
    pick different witnesses and name different violating triples, so
    this is how their agreement is compared. *)
val same_verdict : result -> result -> bool

(** [sync_edges sync] — the consecutive pairs of each synchronization
    order in [sync] (e.g. the atomic broadcast order, or one per shard),
    in order: the edges those orders add to [~H].  {!check_chain} adds
    the same edges itself; this is for building a dense relation for
    {!check_relation}. *)
val sync_edges : Types.mop_id list list -> (Types.mop_id * Types.mop_id) list

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

(** Theorem 7's verdict without a witness: [Refuted r] carries the
    refuting result — [Cyclic], [Constraint_violated] or [Not_legal] —
    and never an [Admissible] or [Extended_cyclic]. *)
type decision = Legal | Refuted of result

(** [decide_chains c ~flavour kind] — the first stage of
    {!check_chains}: the constraint, the Kahn order of the sparse
    edges, the frontier vectors and the next-writer legality scan.  It
    refutes exactly where {!check_chains} does, with the same result
    (the same [Not_legal] triple), and answers [Legal] otherwise,
    building no witness.  Under WW or OO, [Legal] is admissibility
    (Theorem 7: a legal history's extended relation is acyclic,
    Lemmas 3–4); under WO, {!check_chains} may still find it cyclic.
    [~arena] as for {!check_chains}. *)
val decide_chains :
  ?arena:Relation.Arena.arena ->
  chains ->
  flavour:History.flavour ->
  Constraints.kind ->
  decision

(** [check_chains c ~flavour kind] — the same verdict as
    {!check_relation} over [flavour]'s base relation of the history
    [c] describes, without a dense closure.  The check builds a sparse
    graph with the same transitive closure (process order, reads-from,
    the extra edges, and the flavour's real-time / object order
    reduced to the latest source per chain), a per-node frontier
    vector over the C chains, and decides constraint, legality
    (nearest interposing writer) and the [~rw] witness in
    O((n + e) . C).  [Not_legal] names the writer that follows the
    reads-from source in the object's writer chain.  It is
    {!decide_chains} followed, for a legal history, by a second Kahn
    sort over the sparse edges plus [~rw], whose order is the witness
    (the first sort's order when [~rw] is empty).  With [~arena] the
    frontier and sort tables come from the arena's scratch lists and
    go back before returning.  No state outlives the call. *)
val check_chains :
  ?arena:Relation.Arena.arena ->
  chains ->
  flavour:History.flavour ->
  Constraints.kind ->
  result

(** [chains_of h ~sync] — the input of [h] plus the {!sync_edges} of
    [sync] as its extra edges: chains in order of first appearance (the
    initializer's first), members by invocation, each m-operation's
    written objects before the others it touches, and reads-from in
    {!History.rf} order. *)
val chains_of : History.t -> sync:Types.mop_id list list -> chains

(** [check_chain h ~flavour ~sync kind] — {!check_chains} on
    [chains_of h ~sync]. *)
val check_chain :
  ?arena:Relation.Arena.arena ->
  History.t ->
  flavour:History.flavour ->
  sync:Types.mop_id list list ->
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
