(** Deterministic simulated block device.

    A sector-addressed byte store for the durable-storage layer: writes
    land on sector boundaries and the address space grows on demand.
    The device is stored sparsely, as fixed-size chunks of
    {!chunk_sectors} sectors, each with a live-sector bitmask: {!write},
    {!tear} and {!rot_at} set the bits of the sectors they touch,
    {!discard} zeroes its span and clears its bits, and a chunk whose
    mask reaches 0 is all zeroes, so it is dropped.  A device whose
    retired prefix is discarded therefore holds only the chunks of its
    retained extent, and its chunk index (two words per chunk) spans
    chunk 0 — the WAL superblock's — plus about that extent: discards
    rebase it past the discarded prefix.
    Every read stays byte-identical to a flat array.
    Storage faults are injectable primitives driven by the fault plan:

    - {!tear} models a crash cutting a multi-sector write short: the
      most recent write (still "in flight" until the next write
      implicitly syncs it) persists only a strict prefix of its
      sectors, the rest reverting to their previous contents —
      zeroes for fresh appends.
    - {!rot} / {!rot_at} model bit-rot: flip a byte somewhere in the
      written extent of the device.
    - {!discard} models segment reclamation: zero a retired sector
      span and count it as reclaimed space.

    The device knows nothing about record formats; the recovery layer
    frames records with CRC32 checksums on top ({!Mmc_recovery}). *)

type t

(** Sectors per storage chunk (the unit of {!stats}' [resident_bytes]). *)
val chunk_sectors : int

(** [create ?sector_size ()] — empty device; [sector_size] defaults to
    64 bytes and must be at least 32 (a frame header must fit). *)
val create : ?sector_size:int -> unit -> t

val sector_size : t -> int

(** Sectors ever written: the append watermark. *)
val high : t -> int

(** [write t ~sector bytes] stores [bytes] starting at [sector]
    (padding the final sector with zeroes) and returns the number of
    sectors covered.  The write replaces any previous "in flight"
    write as the {!tear} target. *)
val write : t -> sector:int -> Bytes.t -> int

(** Append at the watermark; returns [(first_sector, sectors)]. *)
val append : t -> Bytes.t -> int * int

(** [read t ~sector ~len] — [len] bytes from the start of [sector],
    zero-filled beyond the device extent. *)
val read : t -> sector:int -> len:int -> Bytes.t

(** Forget the in-flight write: it can no longer be torn. *)
val sync : t -> unit

(** Tear the in-flight write, keeping a random strict prefix of its
    sectors; returns the number of sectors rolled back (0 when no
    write is in flight). *)
val tear : t -> rng:Rng.t -> int

(** Flip one byte at a uniformly random offset within the written
    extent; returns its [(sector, offset)], or [None] on an empty
    device. *)
val rot : t -> rng:Rng.t -> (int * int) option

(** Flip the byte at [sector * sector_size + off] (offsets past the
    sector spill into the following ones; must stay within the written
    extent). *)
val rot_at : t -> sector:int -> off:int -> unit

(** Zero a retired sector span and count it reclaimed; chunks left
    with no live sector are freed. *)
val discard : t -> sector:int -> sectors:int -> unit

(** Slots in the chunk index (two words a slot): chunk 0 plus a span
    covering every allocated chunk.  The index is rebuilt at twice the
    extent from the lowest allocated chunk above 0 to the watermark
    when it must grow, and by a {!discard} once it exceeds twice that
    size, so it stays within about four times that extent however far
    the watermark has moved. *)
val index_slots : t -> int

type stats = {
  writes : int;
  reads : int;
  sectors : int;  (** watermark *)
  torn_sectors : int;
  rotted_bytes : int;
  reclaimed_sectors : int;
  resident_bytes : int;  (** bytes of the chunks currently allocated *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
