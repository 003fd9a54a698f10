(** Fault injection below the transport.

    The paper's Section 5 protocols assume reliable (but reordering)
    channels.  This module breaks that assumption on purpose: a
    {!plan} describes message loss, latency spikes, timed network
    partitions and node crash/recovery windows; an injector {!t}
    applies the plan with its own deterministic PRNG stream and
    accumulates every robustness metric of a run (drops by cause,
    retransmissions, suppressed duplicates, end-to-end delivery delay,
    post-heal recovery time).  {!Reliable} rebuilds the paper's channel
    assumption on top; {!Transport} composes the two.

    Crash semantics are fail-recover with stable state: while a node is
    down it neither sends nor receives (equivalently, it is partitioned
    into a singleton island), and on recovery it rejoins with its
    replica state intact — missed messages reach it through
    retransmission. *)

(** Nodes in [island] cannot exchange messages with the rest during
    [\[from_, until)]; the partition heals at [until]. *)
type partition = { from_ : int; until : int; island : int list }

(** Node [node] is down during [\[at, back)] and restarts at [back].
    [wipe = false] is a fail-recover crash with stable state: the
    replica rejoins with its state intact and missed messages reach it
    by retransmission.  [wipe = true] is a wipe-crash: the replica's
    volatile state is lost at [at] and on restart it must recover from
    its checkpoint + write-ahead log and fetch what it missed through
    anti-entropy catch-up ({!Mmc_recovery}); only recovery-aware
    stores support wipe-crashes. *)
type crash = { node : int; at : int; back : int; wipe : bool }

(** Build a crash window; [wipe] defaults to [false]. *)
val crash : ?wipe:bool -> node:int -> at:int -> back:int -> unit -> crash

(** A storage fault striking [node]'s durable devices at instant [at].
    Which fault it is depends on the plan field holding it: a {e tear}
    rolls back a suffix of the sectors of the write in flight (torn
    multi-sector append at a crash instant), a {e rot} flips a byte in
    a retained record (latent bit-rot), a {e stale} corrupts the
    newest checkpoint so recovery must fall back to the previous
    one. *)
type storage_fault = { node : int; at : int }

type plan = {
  drop : float;  (** per-message loss probability, every link *)
  link_drop : ((int * int) * float) list;
      (** per-link [(src, dst)] overrides of [drop] *)
  spike_prob : float;  (** probability of a latency spike *)
  spike_delay : int;  (** extra delay a spiked message pays *)
  partitions : partition list;
  crashes : crash list;
  tears : storage_fault list;  (** torn writes at crash instants *)
  rots : storage_fault list;  (** bit-rot in retained records *)
  stales : storage_fault list;  (** stale-checkpoint losses *)
}

(** No faults at all: the plan every configuration defaults to. *)
val none : plan

val is_none : plan -> bool

(** Raise [Invalid_argument] unless probabilities are in [0,1], delays
    non-negative, windows well-formed, and (when [n] is given) node
    ids in range. *)
val validate : ?n:int -> plan -> unit

val pp_plan : Format.formatter -> plan -> unit

(** The wipe-crashes of a plan. *)
val wipes : plan -> crash list

(** Parse a plan written as comma-separated fields — [drop=P],
    [spike=P:DELAY], [part=FROM:UNTIL:N1+N2+..], [crash=NODE:AT:BACK],
    [wipe=NODE:AT:BACK], [tear=NODE:AT], [rot=NODE:AT],
    [stale=NODE:AT] — and {!validate} it (node ids are not
    range-checked).  All but [drop] and [spike] may repeat; each
    repeat is added to the front of its list.  The empty string is
    {!none}.  There is no field for [link_drop].  An error names the
    bad field and repeats the grammar. *)
val of_spec : string -> (plan, string) result

(** The plan in {!of_spec} syntax, with floats printed exactly and
    each list in the order the parser rebuilds it, so
    [of_spec (to_spec p) = Ok p] for every valid plan without
    per-link loss ({!fuzz} plans included).  Raises [Invalid_argument]
    on a non-empty [link_drop]. *)
val to_spec : plan -> string

(** Deterministic random fault plan for chaos testing, drawn entirely
    from [rng]: a loss rate (70% of plans, up to 0.25), an optional
    latency-spike regime, up to one timed partition and up to two
    crash windows on distinct nodes (wipes preferred, 70%), plus
    storage faults — tears riding half the wipe-crash instants, bit-rot
    on 40% of plans (one or two strikes), a stale-checkpoint loss on
    20%.  Storage draws come after all network draws, so pre-storage
    seeds keep their network plans.  All windows close by tick ~1200,
    so connectivity is always eventually restored and a run can
    converge.  Same [rng] stream, same plan. *)
val fuzz : rng:Rng.t -> n:int -> plan

(** Static liveness: is [node] up at [now] under this plan?  Usable
    without an injector — recovery wiring and the failover sequencer
    derive their deterministic failure-detector view from the plan. *)
val up_in_plan : plan -> now:int -> node:int -> bool

(** Sorted distinct crash-start and restart instants of the plan: the
    candidate view-change points of the failover sequencer. *)
val crash_instants : plan -> int list

(** A fault injector: a validated plan, a private PRNG stream, and the
    accumulated counters of the run. *)
type t

val create : plan -> rng:Rng.t -> t
val plan : t -> plan

type reason =
  | Loss  (** random per-message loss *)
  | Partitioned  (** src and dst on opposite sides of an open window *)
  | Crashed_src  (** sender was down at send time *)
  | Crashed_dst  (** destination was down at delivery time *)

type verdict =
  | Deliver of int  (** deliver with this much extra delay (spikes) *)
  | Drop of reason

(** Judge one transmission attempt at send time ([now]); drops are
    counted.  [Crashed_dst] is never returned here — the destination is
    re-checked at delivery time via {!node_up} because it may crash (or
    recover) while the message is in flight. *)
val judge : t -> now:int -> src:int -> dst:int -> verdict

(** Is [node] up at [now]? *)
val node_up : t -> now:int -> node:int -> bool

(** Count a drop decided outside {!judge} (the transport uses this for
    in-flight messages arriving at a crashed destination). *)
val note_drop : t -> reason -> unit

(** {2 Counters maintained by the reliability layer} *)

val note_retransmission : t -> unit
val note_ack : t -> unit
val note_abandoned : t -> unit
val note_duplicate : t -> unit

(** Count a wipe-crash restart completing its local recovery. *)
val note_restart : t -> unit

(** Record a successful first delivery: feeds the delivery-delay
    distribution and, when the message was sent before a heal point
    (partition [until] or crash [back]) and delivered after it, the
    recovery-time metric. *)
val note_delivery : t -> sent:int -> delivered:int -> unit

type counts = {
  loss : int;
  partitioned : int;
  crashed : int;  (** [Crashed_src] + [Crashed_dst] *)
  spikes : int;
  retransmissions : int;
  acks : int;
  abandoned : int;  (** messages given up after the retry budget *)
  duplicates : int;  (** redundant deliveries suppressed *)
  restarts : int;  (** wipe-crash restarts that completed recovery *)
}

val counts : t -> counts
val dropped : t -> int  (** loss + partitioned + crashed *)

(** Distribution of first-delivery delay (send to delivery, including
    retransmission time) over the messages delivered so far. *)
val delivery_delay : t -> Stats.summary

(** Max over delivered messages of (delivery time − heal point) for
    messages sent before a heal point and delivered after it: how long
    the retransmission layer needed to catch up once connectivity
    returned.  0 when no message straddled a heal. *)
val recovery_time : t -> int
