(** Anti-entropy state transfer for rejoining replicas.

    A replica that restarts after a wipe-crash recovers its checkpoint
    and WAL suffix locally, but entries delivered while it was down
    exist only at its peers (retransmission may have given them up
    under a finite retry budget, and sequencer epoch changes can leave
    gaps only peers can fill).  This module is the catch-up protocol:
    the rejoining replica {!pull}s from every peer with its next
    needed position; each peer responds with a [Push] of its retained
    WAL entries from that position — or, when the position has already
    been truncated, its latest checkpoint plus the suffix (full state
    transfer).  Pushes also carry the peer's applied cursor, giving
    the rejoiner a high-water mark to poll towards.

    The same transport carries {e peer repair}: a replica whose scrub
    pass (or reload) found damaged or quarantined positions sends
    {!repair} with the position list; peers that still retain a
    CRC-verified copy respond with a [Patch] of known-good entries,
    which the requester installs over the damaged frames.

    The protocol runs over its own {!Mmc_sim.Transport} (same engine,
    latency model and fault injector as the store's transports), so
    catch-up traffic is itself subject to the fault plan and is
    counted in message totals. *)

open Mmc_sim

type ('s, 'p) msg =
  | Pull of { from_ : int }
  | Push of {
      from_ : int;  (** the position the [Pull] asked from *)
      cursor : int;  (** the responder's applied position *)
      snap : (int * 's) option;  (** checkpoint, when [from_] was truncated *)
      entries : 'p Wal.entry list;
    }
  | Repair of { positions : int list }  (** please re-send these, verified *)
  | Patch of { entries : 'p Wal.entry list }  (** known-good replacements *)

type ('s, 'p) t

(** [serve ~node ~from] is called on a peer receiving a [Pull]: return
    [(cursor, checkpoint option, entries)].  [learn] is called on the
    puller for every [Push], with the [from] its [Pull] asked for.
    [serve_one ~node ~pos] answers a [Repair] request with the peer's
    CRC-verified copy of one position, if retained; [patch ~node
    entries] installs the known-good entries of an incoming [Patch].  Omitting [serve_one]
    (resp. [patch]) makes the node ignore [Repair] (resp. [Patch])
    messages. *)
val create :
  ?fault:Fault.t ->
  ?config:Reliable.config ->
  ?serve_one:(node:int -> pos:int -> 'p Wal.entry option) ->
  ?patch:(node:int -> 'p Wal.entry list -> unit) ->
  Engine.t ->
  n:int ->
  latency:Latency.t ->
  rng:Rng.t ->
  serve:(node:int -> from:int -> int * (int * 's) option * 'p Wal.entry list) ->
  learn:
    (node:int ->
    from:int ->
    peer_cursor:int ->
    snap:(int * 's) option ->
    'p Wal.entry list ->
    unit) ->
  ('s, 'p) t

(** Ask every peer for entries from position [from]. *)
val pull : ('s, 'p) t -> node:int -> from:int -> unit

(** Ask every peer for verified copies of damaged [positions] (no-op
    on an empty list). *)
val repair : ('s, 'p) t -> node:int -> positions:int list -> unit

val messages_sent : ('s, 'p) t -> int
val pulls : ('s, 'p) t -> int
val pushes : ('s, 'p) t -> int
val entries_pushed : ('s, 'p) t -> int
val snapshots_pushed : ('s, 'p) t -> int

val repairs : ('s, 'p) t -> int  (** [Repair] rounds initiated *)

val patches : ('s, 'p) t -> int  (** [Patch] responses served *)
