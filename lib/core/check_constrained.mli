(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7): under OO or WW, admissibility is equivalent to
    legality, and a witness is any total extension of
    [(~H ∪ ~rw)+].  {!check_chain} decides it without a dense closure;
    the dense {!check_relation} / {!check_closed} / {!Incremental}
    stay as the reference oracle. *)

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

(** [check_chain h ~flavour ~extra kind] — the same verdict as
    {!check_relation} over [flavour]'s base relation plus the [extra]
    edges (e.g. the synchronization order), without a dense closure.
    The initializer and each process form one chain of [~H]; the check
    builds a sparse graph with the same transitive closure (the
    flavour's real-time / object order reduced to the latest source
    per chain), a per-node frontier vector over the C chains, and
    decides constraint, legality (nearest interposing writer) and the
    [~rw] witness in O((n + e) . C).  [Not_legal] names the writer
    that follows the reads-from source in the object's writer chain.
    With [~arena] the frontier and sort tables come from the arena's
    scratch lists and go back before returning.  No state outlives
    the call. *)
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
