(** Execution recorder: turns protocol runs into checkable histories
    with exact reads-from, via (namespace, object, version)
    identification of writers. *)

open Mmc_core

type record = {
  proc : Types.proc_id;
  inv : Types.time;
  resp : Types.time;
  ops : Op.t list;
  reads : (Types.obj_id * int * int) list;
      (** external reads: (object, version, namespace) *)
  writes : (Types.obj_id * int * int) list;
      (** final writes: (object, new version, namespace) *)
  start_ts : Version_vector.t;
  finish_ts : Version_vector.t;
  sync : int option;
      (** position in the synchronization (atomic broadcast) total
          order, when the protocol has one *)
}

(** [make ~proc ~inv ~resp ~start_ts ~finish_ts ?sync a] — the record
    of the m-operation whose program run was [a]: its ops, external
    reads and final writes, issued by [proc] at [inv] and answered at
    [resp], with the replica's version vector before and after it and
    its synchronization position, if it has one.  Every store records
    through it.

    A record owns its two stamps: nothing mutates them once recorded
    (no consumer writes a record's [start_ts] or [finish_ts]), so a
    store may pass one array as both when they are equal, as for a
    query. *)
val make :
  proc:Types.proc_id ->
  inv:Types.time ->
  resp:Types.time ->
  start_ts:Version_vector.t ->
  finish_ts:Version_vector.t ->
  ?sync:int ->
  Apply.applied ->
  record

type t

val create : n_objects:int -> t
val add : t -> record -> unit
val count : t -> int

(** Records in the order they were added. *)
val records : t -> record list

(** Hand the accumulated records over (in add order) and forget them:
    a streaming consumer drains periodically so resident record state
    is bounded by the drain interval, not the run length.  {!count}
    keeps the cumulative total; a drained recorder can no longer build
    the full history. *)
val drain : t -> record list

(** A recorder pre-loaded with [records] (in order), as if each had
    been {!add}ed — lets a stitching layer (e.g. the sharded store's
    {!Mmc_shard.Shard_recorder}) rebuild histories from remapped
    records through the same numbering and reads-from resolution. *)
val of_records : n_objects:int -> record list -> t

(** Rewrite every recorded synchronization position through a strictly
    monotone map — lets a store re-number its broadcast order at the
    end of a run (the seg store's frontier-ordered finalize). *)
val remap_sync : t -> (int -> int) -> unit

exception Inconsistent_versions of string

val n_objects : t -> int

(** [iter_numbered t ~read f] — the numbering every history built from
    [t] uses, without building one.  One pass over the records numbers
    them 1, 2, … in stable (invocation, response) order, maps each
    (namespace, object, version) to its writer's number and ranks the
    synchronized records by (position, number).  Then [f id r reads
    sync] is called for each record [r] in number order: [reads] holds
    [read id x w] for each of [r.reads], in order, where [w] is the
    number of the writer of that (namespace, object, version) — 0, the
    initializer, for version 0 — and [sync] is the record's rank, 0 for
    the first position, when it has one.  {!to_history_full} is built
    on it.

    Raises {!Inconsistent_versions} before calling [f] when two records
    write one (namespace, object, version), and before calling [f] on a
    record that reads a version no record wrote. *)
val iter_numbered :
  t ->
  read:(Types.mop_id -> Types.obj_id -> Types.mop_id -> 'a) ->
  (Types.mop_id -> record -> 'a list -> int option -> unit) ->
  unit

(** Build the history (m-operations numbered in invocation order;
    version-0 reads resolve to the initializer) and the timestamp
    table for the P 5.x validators. *)
val to_history : t -> History.t * (Types.mop_id, Version_vector.stamped) Hashtbl.t

(** Like {!to_history}, also returning the synchronization order: the
    ids of synchronized updates in atomic-broadcast order.  Adding
    these as edges to the m-SC base relation installs the
    WW-constraint, enabling the polynomial Theorem 7 checker on
    protocol traces.  Numbers and resolves reads through
    {!iter_numbered}, so it raises {!Inconsistent_versions} in the same
    cases; raises {!History.Ill_formed} on a trace the history rejects. *)
val to_history_full :
  t ->
  History.t
  * (Types.mop_id, Version_vector.stamped) Hashtbl.t
  * Types.mop_id list
