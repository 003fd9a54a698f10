(** Per-replica write-ahead log of delivered broadcast entries.

    The recoverable store appends every totally-ordered entry {e
    before} applying it to the volatile object state, so the applied
    prefix is always reconstructible: a crash loses the in-memory
    copy, never the log.  Entries are keyed by their global
    total-order position; [payload = None] records a {e hole} — a
    position fenced off during a sequencer epoch change that every
    replica skips uniformly (the log keeps the slot so replay and
    catch-up stay position-aligned).

    Since the storage-fault work the log is {e durable on a simulated
    block device} ({!Mmc_sim.Blockdev}): records are appended as
    CRC32-framed frames ({!Frame}) grouped into segments whose header
    frames carry a sequence number, the first position and the reload
    generation; a superblock at sector 0 holds the durable truncation
    low watermark.  The in-memory side is only an index (an
    array-backed {!Deque} of frame locations) — {!crash} drops it and
    {!reload} rebuilds it by scanning the device, truncating a torn
    tail, quarantining mid-log corruption and falling back to genesis
    on a damaged superblock.  {!scrub} re-verifies retained frames so
    rot is found (and {!patch}ed from peers) before the data is
    needed.  With [crc = false] the same damage is {e not} detected:
    damaged records pass through as silent holes — the mode the chaos
    oracle is pinned to catch.

    The log is append-only and strictly position-increasing at the
    head; appending {e below} the head is allowed exactly when the
    position is absent (a quarantined gap or torn tail being refilled
    by catch-up) and raises [Invalid_argument] when it is present.
    {!truncate_below} drops a prefix once a checkpoint covers it and
    retires (reclaims) segments wholly below the watermark. *)

open Mmc_sim

type 'p entry = {
  pos : int;  (** global total-order position *)
  origin : int;  (** issuing replica *)
  payload : 'p option;  (** [None] = hole (epoch-fence no-op) *)
}

type 'p t

(** [create ?dev ?crc ?seg_records ()] — fresh log on [dev] (a private
    device by default).  [crc] (default [true]) enables integrity
    checking: corruption detection, quarantine and repair.
    [seg_records] (default 8) caps records per segment. *)
val create : ?dev:Blockdev.t -> ?crc:bool -> ?seg_records:int -> unit -> 'p t

val dev : 'p t -> Blockdev.t
val crc_enabled : 'p t -> bool

(** Append at a position strictly above the current head, or refill an
    absent position below it (gap repair); raises [Invalid_argument]
    when the position is already present. *)
val append : 'p t -> 'p entry -> unit

(** 1 + highest appended position; 0 for an empty log. *)
val high : 'p t -> int

(** Smallest retained position (everything below was truncated). *)
val low : 'p t -> int

val length : 'p t -> int
val appended : 'p t -> int
val truncated : 'p t -> int

(** Is [pos] present in the index? *)
val mem : 'p t -> int -> bool

(** Drop entries below [pos] (a checkpoint at [pos] covers them),
    persist the new watermark in the superblock and reclaim segments
    wholly below it. *)
val truncate_below : 'p t -> pos:int -> unit

(** Retained entries with position [>= from], in position order,
    decoded and CRC-verified from the device — the replay suffix after
    loading a checkpoint, and the payload of anti-entropy [Push]
    responses.  Records that fail verification are omitted and
    quarantined (crc on) or admitted as holes (crc off). *)
val suffix : 'p t -> from:int -> 'p entry list

(** Decode one retained record, CRC-verified; [None] when absent or
    damaged. *)
val entry_at : 'p t -> pos:int -> 'p entry option

(** Verify every retained frame; returns the positions found damaged
    (queued for {!patch}).  A frame read clean by an earlier pass is
    read again only when the device has stamped one of its chunks
    since ({!Blockdev.changed_since}), so an unchanged log costs no
    reads; the result is the damaged set a full re-read would find,
    and the [scrubbed] counter still counts every frame a pass covers.
    No-op with [crc = false]. *)
val scrub : 'p t -> int list

(** Repair a damaged or quarantined position with a known-good entry
    from a peer: rewrite in place when the fresh frame fits the old
    sector span, else append and re-point the index.  Returns [false]
    when the position needs no repair. *)
val patch : 'p t -> 'p entry -> bool

(** Are any positions quarantined or awaiting repair? *)
val quarantined : 'p t -> bool

(** Quarantined position ranges [[lo,hi)]. *)
val quarantine : 'p t -> (int * int) list

(** Flip a payload byte of a retained record at position [>= above]
    when possible (else any); returns the chosen position.  The
    bit-rot injection point of the fault plan. *)
val rot_record : 'p t -> rng:Rng.t -> above:int -> int option

(** Drop the volatile index (wipe-crash). *)
val crash : 'p t -> unit

type report = {
  r_torn_sectors : int;  (** junk sectors past the last good frame *)
  r_lost : int;  (** records dropped by the scan (detected corruption) *)
  r_silent : int;  (** damaged records admitted as holes (crc off) *)
  r_quarantine : (int * int) list;
}

(** Rebuild the index from the device after a crash: scan sector by
    sector resyncing on frame magic, truncate the torn tail,
    quarantine gaps (crc on), fall back to genesis on a damaged
    superblock. *)
val reload : 'p t -> report

type counters = {
  torn : int;
  corrupt : int;
  silent : int;
  repaired : int;
  scrubbed : int;
  reloads : int;
}

val counters : 'p t -> counters
val pp : Format.formatter -> 'p t -> unit
