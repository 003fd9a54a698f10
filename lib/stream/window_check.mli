(** Windowed streaming Theorem-7 checker.

    Verifies a trace of completed m-operations {e as it streams}: the
    trace is checked in epochs over a sliding window of live
    m-operations, and once a prefix is verified {e and} provably
    closed off from the future (no live or future m-operation can
    reach back into it except through its object frontier), the prefix
    is retired into a constant-size {e summary m-operation} — one
    synthetic m-operation writing the frontier version of every object
    the retired prefix wrote.  Resident state is O(window), not
    O(trace): each epoch check's tables are recycled through a
    {!Mmc_core.Relation.Arena} and retired version bookkeeping is
    dropped as the frontier advances.

    {b Feed contract.}  Entries are fed in global (inv, resp) order —
    the order {!Mmc_store.Recorder.iter_numbered} numbers them — and
    invocation times must be non-decreasing.  Reads may reference
    writers not yet fed (a long-running reader can complete, and so be
    fed, before the writer whose version it read): such entries wait
    in a pending queue until their writers arrive.  Updates must carry
    their synchronization (atomic broadcast) position; positions start
    at 0 and every position is eventually fed.

    {b Validated once, at feed.}  Each entry is checked against its
    ops when it is fed, and an ill-formed feed answers [Inconclusive]
    at every window size: an op on an object out of range; a process
    whose intervals overlap (each entry against its process's last
    one, retired or not); reads that do not name exactly one writer
    for each external read (an object's first op, when it is a read),
    or name the entry itself; listed writes that are not exactly the
    final writes of the ops, with their values; and, when the read
    resolves, a value its writer (a live one, the frontier or the
    initializer) did not write.  The messages name m-operations by
    feed index, counting from 1 — the ids NDJSON traces carry — never
    by their position in an epoch.

    {b Verdict.}  [Pass]/[Fail] agree with the full-trace checker
    ({!Mmc_store.Runner.check_history}) on the same trace: a retired
    prefix only ever stands for real [~H]-paths (see DESIGN.md §14 for
    the argument), so no spurious cycles appear, and every edge
    of the full trace either lies inside some epoch's window or
    factors through a summary edge.  When the checker cannot maintain
    that guarantee — a read of a version older than the retired
    frontier (stale beyond the settle grace), an update without a
    broadcast position, inconsistent version numbering — it answers
    [Inconclusive] rather than guessing. *)

open Mmc_core

(** How an entry's external read names its writer: by the (dense,
    per-object) version counter the recorder logs, or by the writer's
    global m-operation id (as NDJSON traces are written).  Version or
    gid [0] is the initializer. *)
type rref = Version of int | Gid of int

type entry = {
  proc : Types.proc_id;
  inv : Types.time;
  resp : Types.time;
  ops : Op.t list;
  reads : (Types.obj_id * rref) list;  (** external reads *)
  writes : (Types.obj_id * int * Value.t) list;
      (** final writes: (object, version, value written); versions of
          one object must be strictly increasing in apply (broadcast)
          order, not necessarily dense *)
  sync : int option;
      (** position in the synchronization order; required when
          [writes] is non-empty *)
}

(** [entry_of_record r] — adapt a recorder record.  Raises
    [Invalid_argument] if the record spans version namespaces — the
    broadcast-based stores the streaming checker targets use a single
    one (multi-namespace stores record unsynchronized updates, which
    {!feed} answers [Inconclusive] anyway).  A recorded write its ops
    do not make is left for {!feed} to reject. *)
val entry_of_record : Mmc_store.Recorder.record -> entry

type verdict =
  | Pass
  | Fail of { prefix : int; reason : string }
      (** the first [prefix] fed m-operations are not admissible *)
  | Inconclusive of string
      (** the windowed checker cannot decide (see above); the
          full-trace checker still can *)

type metrics = {
  fed : int;  (** entries accepted by {!feed} *)
  pending : int;  (** fed, waiting for a not-yet-fed rf writer *)
  live : int;  (** in the current window *)
  max_live : int;
  checks : int;  (** epoch checks run *)
  retired : int;  (** entries retired behind the frontier *)
  frontier_objects : int;  (** objects with a retired (nonzero) frontier *)
  resident_words : int;
      (** the most words the last epoch check held from the arena at
          once (frontier vectors, chain members, sort scratch); its
          n-word topological orders and per-chain/per-object index
          tables are allocated directly and not counted, nor is the
          epoch input the window keeps *)
  max_resident_words : int;
  recycled_words : int;  (** cumulative words recycled into the arena *)
  arena_hits : int;
  arena_misses : int;
}

type t

val default_window : int
val default_settle : int

(** [create ~flavour ~n_objects ()] — [window] is the live-entry count
    that triggers an epoch check (default {!default_window});
    [settle] is the virtual-time grace after a version is superseded
    before the checker assumes no straggler will still read it
    (default {!default_settle}; a read arriving later anyway is
    [Inconclusive], never a wrong verdict).  An [arena] may be shared
    with other checkers (sharded soak) — one is created otherwise. *)
val create :
  ?arena:Relation.Arena.arena ->
  ?window:int ->
  ?settle:int ->
  flavour:History.flavour ->
  n_objects:int ->
  unit ->
  t

(** Feed the next completed m-operation (in (inv, resp) order).  May
    run an epoch check.  After the verdict latches to [Fail] or
    [Inconclusive], feeding is a no-op. *)
val feed : t -> entry -> unit

(** Force an epoch check of the current window (no-op when empty). *)
val flush : t -> unit

(** End of stream: check whatever is live (entries still pending an
    rf writer make the verdict [Inconclusive]) and return the final
    verdict. *)
val finish : t -> verdict

val verdict : t -> verdict
val metrics : t -> metrics

(** [make_entry ~proc ~inv ~resp ~ops ~reads ~sync] — the entry of an
    m-operation whose external reads name their writers by id ([reads],
    each [Gid] in the order {!History.rf_of_reader} lists them) and
    whose final writes, by ascending object ({!Op.final_writes}), are
    versioned by synchronization position: version [sync + 1], past the
    initial version 0 (0 without a position, which {!feed} rejects for
    an update).  The one constructor behind {!feed_history},
    {!feed_recorder} and NDJSON traces ([mmc check --stream]). *)
val make_entry :
  proc:Types.proc_id ->
  inv:Types.time ->
  resp:Types.time ->
  ops:Op.t list ->
  reads:(Types.obj_id * rref) list ->
  sync:int option ->
  entry

(** [feed_history t h ~sync_order] — feed a complete in-memory history
    (in id = (inv, resp) order), each m-operation's synchronization
    position its index in [sync_order], for cross-checking the windowed
    verdict against {!Mmc_store.Runner.check_history} on tier-1-size
    traces.  Follow with {!finish}. *)
val feed_history : t -> History.t -> sync_order:Types.mop_id list -> unit

(** [feed_recorder t r] — feed a recorder's trace straight from its
    records, numbered by {!Mmc_store.Recorder.iter_numbered}: exactly
    the entries {!feed_history} feeds for
    {!Mmc_store.Recorder.to_history_full}[ r], without building a
    history.  Raises {!Mmc_store.Recorder.Inconsistent_versions} where
    [to_history_full] does; a trace the history would reject as
    ill-formed answers [Inconclusive] instead, with {!feed}'s message.
    Follow with {!finish}. *)
val feed_recorder : t -> Mmc_store.Recorder.t -> unit
