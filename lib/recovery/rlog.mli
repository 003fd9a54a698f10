(** Per-replica durable state: a {!Wal} and a {!Checkpoint} on
    simulated block devices, under one policy.

    The recoverable store owns one [Rlog] per replica.  {!log} appends
    a delivered entry and, every [checkpoint_every] positions, takes a
    snapshot (supplied by the caller) and truncates the log prefix it
    covers — keeping [retain] entries below the checkpoint so the
    replica can still serve anti-entropy catch-up to peers that are
    only slightly behind.  {!recover_full} is the corruption-aware
    restart path: rebuild both device indexes, load the newest
    checkpoint that verifies (falling back to the previous one, then
    genesis), and split the WAL suffix at the first quarantined gap —
    the contiguous prefix replays now, the orphans beyond re-enter as
    proven entries once catch-up refills the gap.  {!scrub} (driven as
    a background engine event by the store) re-verifies retained
    frames so bit-rot is found and {!patch}ed from peers before the
    data is needed.  The {!inject_tear}/{!inject_rot}/{!inject_stale}
    hooks are the storage-fault entry points of the chaos plans. *)

open Mmc_sim

type policy = {
  checkpoint_every : int;  (** snapshot every this many applied positions *)
  gap_poll : int;
      (** virtual-time interval between catch-up polls while the
          replica has a delivery gap *)
  retain : int;  (** log entries kept below the last checkpoint *)
  scrub_every : int;
      (** virtual-time interval between background CRC scrub passes;
          0 disables scrubbing *)
  crc : bool;
      (** integrity checking: detect, quarantine and repair damaged
          frames.  [false] models a store that trusts the medium —
          damage silently becomes holes, which the chaos oracle is
          pinned to catch. *)
  seg_records : int;  (** records per WAL segment *)
}

(** checkpoint_every 16, gap_poll 60, retain 64, scrub_every 120,
    crc on, seg_records 8. *)
val default_policy : policy

(** Raise [Invalid_argument] unless intervals are positive,
    [retain]/[scrub_every] non-negative and [seg_records] positive. *)
val validate_policy : policy -> unit

type ('s, 'p) t

val create : policy -> ('s, 'p) t
val policy : ('s, 'p) t -> policy
val wal : ('s, 'p) t -> 'p Wal.t
val checkpoint : ('s, 'p) t -> 's Checkpoint.t

(** Append a delivered entry (write-ahead: call before applying).
    [snapshot] is invoked only when the policy takes a checkpoint.
    Re-logging an already-durable position is a no-op. *)
val log : ('s, 'p) t -> 'p Wal.entry -> snapshot:(unit -> 's) -> unit

(** Wipe-crash: drop both volatile indexes; the devices survive. *)
val crash : ('s, 'p) t -> unit

type ('s, 'p) recovery = {
  rsnap : (int * 's) option;
  rreplay : 'p Wal.entry list;  (** contiguous from the snapshot *)
  rorphans : 'p Wal.entry list;
      (** durable survivors beyond a quarantined gap, to re-ingest as
          proven once catch-up refills it *)
  rreport : Wal.report;
}

(** Corruption-aware restart path (see the module doc). *)
val recover_full : ('s, 'p) t -> ('s, 'p) recovery

(** Restart path, legacy shape: the newest verifying checkpoint (if
    any) and the contiguous log suffix to replay on top, in position
    order. *)
val recover : ('s, 'p) t -> (int * 's) option * 'p Wal.entry list

(** Entries with position [>= from] for an anti-entropy [Push]. *)
val serve : ('s, 'p) t -> from:int -> 'p Wal.entry list

(** Whether [from] is still covered by the retained log (otherwise the
    peer needs the checkpoint — full state transfer). *)
val serves_from : ('s, 'p) t -> from:int -> bool

(** Re-verify retained frames; returns damaged positions. *)
val scrub : ('s, 'p) t -> int list

(** One CRC-verified retained entry, for serving a peer-repair pull. *)
val entry_at : ('s, 'p) t -> pos:int -> 'p Wal.entry option

(** Install a known-good entry over a damaged or quarantined
    position. *)
val patch : ('s, 'p) t -> 'p Wal.entry -> bool

(** Does the WAL hold quarantined or repair-pending positions?  A
    quarantined replica is unfit to take over sequencing until
    repaired. *)
val quarantined : ('s, 'p) t -> bool

(** Tear the write in flight on whichever device was written last —
    the crash-instant torn-write fault; returns sectors rolled back. *)
val inject_tear : ('s, 'p) t -> rng:Rng.t -> int

(** Flip a payload byte of a retained record above the checkpoint
    horizon when possible; returns the chosen position. *)
val inject_rot : ('s, 'p) t -> rng:Rng.t -> int option

(** Corrupt the newest checkpoint in place (stale-checkpoint loss). *)
val inject_stale : ('s, 'p) t -> rng:Rng.t -> bool

type stats = {
  appends : int;
  checkpoints : int;
  truncated : int;
  replayed : int;
  torn : int;  (** tail sectors lost to torn writes *)
  corrupt : int;  (** damaged records detected *)
  silent : int;  (** damaged records admitted as holes (crc off) *)
  repaired : int;  (** positions refilled by catch-up or peer patch *)
  scrubbed : int;  (** record verifications done by scrub passes *)
  ckpt_fallbacks : int;  (** damaged checkpoints skipped at load *)
  reclaimed_sectors : int;  (** device space recovered by retirement *)
  resident_bytes : int;  (** device bytes held (WAL + checkpoint) *)
}

val stats : ('s, 'p) t -> stats
val pp_stats : Format.formatter -> stats -> unit
