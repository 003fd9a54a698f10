(** Recoverable atomic broadcast: total-order delivery tagged with
    global positions.

    The plain {!Abcast} interface delivers payloads in order at each
    node and leaves the position implicit.  Crash recovery needs it
    explicit: a write-ahead log keys entries by position, a rejoining
    replica asks peers for "everything from position [H]", and a
    sequencer epoch change can fence a position off as a {e hole}
    that every replica skips.  A recoverable broadcast therefore
    delivers [(pos, delivery)] with exactly-once-per-{e current}-
    stamping discipline but {e no ordering guarantee}: positions may
    arrive out of order (catch-up, fencing, retransmission) and the
    store sequences them with its own cursor.

    Deliveries are three-valued.  [Payload p] assigns [p] to the
    position.  [Hole] fences the position off — every replica skips
    it.  [Retract] withdraws an earlier [Payload]/[Hole] delivery for
    the position: an epoch change can orphan a stamp that was never
    quorum-stable (the new sequencer renumbers from its sync base), in
    which case the position is first retracted and later re-delivered
    under its new stamping.  A store that applies optimistically may
    have consumed the retracted stamp already — that is exactly the
    §12 anomaly; a quorum-stable store never applies a retractable
    position.

    Two implementations: {!Ha_sequencer} (epoch-numbered sequencers
    with suspicion-driven failover) and {!of_abcast} over the Lamport
    broadcast (whose intrinsic delivery order provides positions;
    holes and retractions never occur). *)

type stats = {
  epochs : int;  (** epoch changes completed (takeovers that formed) *)
  syncs : int;  (** takeover sync rounds completed *)
  holes : int;  (** positions fenced as holes at epoch changes *)
  fenced : int;  (** stale sequencer messages discarded *)
  resubmits : int;  (** client requests re-sent to a new epoch *)
  retracted : int;  (** orphaned stamps withdrawn at epoch changes *)
  sync_entries : int;
      (** ordering entries shipped in takeover sync answers: the
          unreleased tails, O(in-flight) when the store releases *)
}

val zero_stats : stats
val pp_stats : Format.formatter -> stats -> unit

type 'p delivery =
  | Payload of 'p  (** the position's (current) stamped payload *)
  | Hole  (** position fenced at an epoch change — skip it *)
  | Retract  (** withdraw this position's earlier delivery *)

type 'p t = {
  name : string;
  broadcast : src:int -> 'p -> unit;
  release : node:int -> pos:int -> origin:int -> oseq:int -> unit;
  messages_sent : unit -> int;
  stats : unit -> stats;
  detector_stats : unit -> Mmc_sim.Detector.stats option;
      (** failure-detector counters when the implementation runs one *)
}

val broadcast : 'p t -> src:int -> 'p -> unit

(** [release t ~node ~pos ~origin ~oseq]: [node]'s store has applied
    position [pos] with the stamping [(origin, oseq)] ([(-1, -1)] for
    a hole), so the position is decided and the implementation may
    drop the ordering state it kept to fence or renumber it.  Only a
    store that applies quorum-stable positions may call it, once per
    applied position (repeats are ignored).  The applied stamping is
    the authority: state that disagrees with it is kept until the
    epoch close that supersedes it withdraws it. *)
val release : 'p t -> node:int -> pos:int -> origin:int -> oseq:int -> unit
val messages_sent : 'p t -> int
val name : 'p t -> string
val stats : 'p t -> stats
val detector_stats : 'p t -> Mmc_sim.Detector.stats option

(** [deliver ~node ~origin ~pos d] is invoked at most once per
    [(node, pos)] {e per stamping}: a position is re-delivered only
    after an intervening [Retract] (or to override a stale stamp with
    [Hole]).  [origin] is [-1] for [Hole]/[Retract].  Positions can
    arrive in any order.  [detector] configures the failure detector
    of implementations that elect (ignored by the rest).  [fit node]
    vetoes takeover by an unfit candidate — the store passes a
    predicate that holds off replicas with quarantined (damaged,
    unrepaired) log positions; implementations that elect retry until
    the candidate becomes fit or suspicion moves on.  Default: everyone
    is fit. *)
type 'p factory =
  ?duplicate:float ->
  ?fault:Mmc_sim.Fault.t ->
  ?reliable:Mmc_sim.Reliable.config ->
  ?batch:Batch.t ->
  ?detector:Mmc_sim.Detector.config ->
  ?fit:(int -> bool) ->
  Mmc_sim.Engine.t ->
  n:int ->
  latency:Mmc_sim.Latency.t ->
  rng:Mmc_sim.Rng.t ->
  deliver:(node:int -> origin:int -> pos:int -> 'p delivery -> unit) ->
  'p t

(** Lift a plain atomic broadcast by numbering each node's delivery
    sequence (positions arrive in order; holes and retractions never
    occur). *)
val of_abcast : 'p Abcast.factory -> 'p factory
