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
    ({!Mmc_core.Check_constrained.check_chain}); only the batch oracle
    builds the dense closure.

    Two distinct comparisons come out of this:

    - [agree] — the decomposed chain pipeline reaches the same
      verdict as the plain batch {!Mmc_core.Check_constrained}
      ("unsharded") run on the very same stitched history and relation.
      This must always hold; a disagreement is a checker bug.
    - [composes] — (every shard admissible) <=> (stitched history
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
      (** verdict of the decomposed pipeline on the stitched history *)
  batch : Check_constrained.result option;
      (** the unsharded batch {!Mmc_core.Check_constrained} verdict on
          the same stitched history and relation; [None] when the
          oracle pass was skipped ([~oracle:false]) *)
  agree : bool;
      (** [stitched] and [batch] reach the same verdict (vacuously
          true when the oracle pass was skipped) *)
  composes : bool;
      (** (every shard admissible) <=> (stitched history admissible) *)
}

val all_shards_admissible : t -> bool
val admissible : t -> bool  (** the stitched verdict *)

val pp : Format.formatter -> t -> unit

(** [stitched_relation st ~flavour] — the constrained relation of the
    stitched history: the flavour's base relation, every per-shard
    chain, and the merged global update order (which makes the update
    order total, as the WW-constraint requires). *)
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
    Theorem-7 verdicts (each shard's own history, base relation plus
    that shard's broadcast order), index = shard. *)
val check_shards :
  ?kind:Constraints.kind ->
  Mmc_store.Recorder.t array ->
  flavour:History.flavour ->
  shard_verdict array

(** [check ?oracle ?kind placement recorders ~flavour] —
    per-shard Theorem-7 checks, the stitched chain check, the
    batch cross-check and the [agree] / [composes] bits.  [kind]
    defaults to WW (each shard's broadcast totally orders its updates,
    and the merged order extends them globally).  [~oracle:false]
    skips the O(n^3) batch cross-check (then [batch = None] and
    [agree] is vacuously true) — for bench loops that only want the
    decomposed pipeline. *)
val check :
  ?oracle:bool ->
  ?kind:Constraints.kind ->
  Placement.t ->
  Mmc_store.Recorder.t array ->
  flavour:History.flavour ->
  t
