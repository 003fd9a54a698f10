(** Stitching per-shard recorded histories into one global history.

    Each shard's recorder holds records over that shard's local object
    space with shard-local version counters and shard-local broadcast
    positions.  Stitching remaps object ids to the global space, keeps
    version namespaces disjoint across shards, renumbers m-operations
    globally in invocation order (the same convention as
    {!Mmc_store.Recorder}), and recovers

    - the per-shard synchronization chains in global m-operation ids
      (shard [s]'s updates in shard [s]'s broadcast order), and
    - one merged global update order: a deterministic linear extension
      of (process order ∪ reads-from ∪ all per-shard chains), which
      installs the WW-constraint on the stitched history (Theorem 7) —
      sound because any write-write conflict lives inside one shard
      and is already ordered by that shard's chain, so the extension
      never contradicts an object's version order. *)

open Mmc_core
open Mmc_store

type t = {
  history : History.t;  (** the stitched global history *)
  chains : Types.mop_id list array;
      (** index = shard; that shard's synchronized updates in its
          broadcast order, as global m-operation ids *)
  sync_order : Types.mop_id list;
      (** merged global order of all synchronized updates: empty iff
          the union of process order, reads-from and the chains is
          cyclic (an inconsistent execution — the checker will say so) *)
  shard_of_mop : (Types.mop_id, int) Hashtbl.t;
      (** global m-operation id -> the shard that executed it *)
}

(** [stitch placement recorders] — build the global history.  Raises
    {!Mmc_store.Recorder.Inconsistent_versions} or
    {!Mmc_core.History.Ill_formed} if the per-shard records cannot form
    a well-formed global history. *)
val stitch : Placement.t -> Recorder.t array -> t
