(** Random m-operation generators for the protocol runner. *)

open Mmc_sim
open Mmc_store

(** Mixed read/write workload per the spec. *)
val mixed : Spec.t -> Rng.t -> proc:int -> step:int -> Prog.mprog

(** Placement-aware mixed workload for the sharded store.

    With probability [1 - cross_shard_ratio] an m-operation stays on a
    single shard: a Zipf-popular home object picks the shard, the
    remaining operations draw (Zipf by popularity rank again) from that
    shard's object pool.  With probability [cross_shard_ratio] (default
    0, requires at least two operations and two populated shards) the
    plan spans exactly two distinct shards, its operations grouped by
    shard in ascending shard rank — the deterministic segment order the
    {!Mmc_shard.Router} relies on.  Updates contain at least one write
    per segment, so every sub-invocation of a cross-shard update is an
    update on its shard; [spec.skew] both selects hot shards and hot
    objects within a shard. *)
val sharded :
  ?cross_shard_ratio:float ->
  Mmc_shard.Placement.t ->
  Spec.t ->
  Rng.t ->
  proc:int ->
  step:int ->
  Prog.mprog

(** Commuting-ratio counter workload for the [seg] store's fast path:
    with probability [commute_ratio] (default 0.9) an update is a
    fetch-and-add on a counter homed at the invoking process
    (ownership = object id mod [n_procs], the [seg] default) —
    confluent, broadcast-free; otherwise it is a [Counter.move] to a
    differently-owned counter — a sequenced segment transition.
    Queries ([spec.read_ratio]) read an owned counter.  At
    [commute_ratio = 1.0] a [seg] run sends zero messages; at [0.0]
    every update escalates. *)
val counter_commute :
  ?commute_ratio:float ->
  n_procs:int ->
  Spec.t ->
  Rng.t ->
  proc:int ->
  step:int ->
  Prog.mprog

(** {!counter_commute} confined to a placement: sequenced moves target
    a differently-owned counter on the same shard when possible, so
    escalations exercise the flush barrier rather than the router's
    cross-shard splitting. *)
val sharded_counter_commute :
  ?commute_ratio:float ->
  n_procs:int ->
  Mmc_shard.Placement.t ->
  Spec.t ->
  Rng.t ->
  proc:int ->
  step:int ->
  Prog.mprog

(** DCAS-heavy contention workload over register pairs. *)
val dcas_contention : Spec.t -> Rng.t -> proc:int -> step:int -> Prog.mprog
