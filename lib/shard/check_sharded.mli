(** Per-shard verification of a sharded run, plus the stitched global
    check that validates the composition.

    Theorem 7 makes sharded verification tractable: under a WW- (or
    OO-) constraint, admissibility is equivalent to legality, checkable
    in polynomial time.  Every write-write and read-write conflict
    involves a single object and objects live on exactly one shard, so

    - each shard's trace is checked on its own — base relation of the
      consistency condition plus that shard's broadcast order — over an
      S-times smaller history, and
    - the stitched global history is checked once, with the merged
      update order of {!Shard_recorder} installing the global
      WW-constraint.

    Both go through the chain-decomposed check
    ({!Mmc_core.Check_constrained.check_chain}), the one Theorem-7
    engine of every run path; {!stitched_relation} builds the same
    stitched relation densely for tests and experiments that compare
    the chain check against {!Mmc_core.Check_constrained.check_relation}.

    The stitched verdict answers a question the per-shard ones do not:
    [composes] — (every shard admissible) <=> (stitched history
    admissible).  This can legitimately fail: sequential-consistency-
    style conditions are not compositional (cf. Gotsman et al.,
    "Consistency models with global operation sequencing and their
    composition").  A client that observes shard B's fresh state and
    then reads stale state from shard A produces a stitched history
    that no global Msc order explains, even though every shard is
    perfectly Msc on its own.  Such runs are composition anomalies,
    counted and reported by the [shard] experiment. *)

open Mmc_core

type shard_verdict = {
  shard : int;
  mops : int;  (** real m-operations the shard executed *)
  result : Check_constrained.result;
}

type t = {
  per_shard : shard_verdict array;
  stitched : Check_constrained.result;
      (** verdict of the chain check on the stitched history *)
  composes : bool;
      (** (every shard admissible) <=> (stitched history admissible) *)
}

(** Every per-shard verdict (of {!check_shards}, or [t.per_shard])
    admissible. *)
val shards_admissible : shard_verdict array -> bool

val admissible : t -> bool  (** the stitched verdict *)

val pp : Format.formatter -> t -> unit

(** [stitched_relation st ~flavour] — the constrained relation of the
    stitched history, dense: the flavour's base relation, every
    per-shard chain, and the merged global update order (which makes
    the update order total, as the WW-constraint requires).  The
    reference input for {!Mmc_core.Check_constrained.check_relation};
    {!check_stitched} decides over the same edges. *)
val stitched_relation :
  Shard_recorder.t -> flavour:History.flavour -> Relation.t

(** [check_stitched st ~flavour ~kind] — Theorem-7 check of the
    stitched global history over the edges of {!stitched_relation},
    by the chain-decomposed check. *)
val check_stitched :
  ?kind:Constraints.kind ->
  Shard_recorder.t ->
  flavour:History.flavour ->
  Check_constrained.result

(** [check_shards recorders ~flavour ~kind] — just the per-shard
    Theorem-7 verdicts, index = shard: each is
    {!Mmc_store.Runner.check_history} on the shard's own history and
    broadcast order. *)
val check_shards :
  ?kind:Constraints.kind ->
  Mmc_store.Recorder.t array ->
  flavour:History.flavour ->
  shard_verdict array

(** [of_verdicts per_shard stitched] — the result of those verdicts,
    [composes] included. *)
val of_verdicts : shard_verdict array -> Check_constrained.result -> t

(** [check ?kind placement recorders ~flavour] — per-shard Theorem-7
    checks, the stitched chain check and the [composes] bit.  [kind]
    defaults to WW (each shard's broadcast totally orders its updates,
    and the merged order extends them globally). *)
val check :
  ?kind:Constraints.kind ->
  Placement.t ->
  Mmc_store.Recorder.t array ->
  flavour:History.flavour ->
  t
