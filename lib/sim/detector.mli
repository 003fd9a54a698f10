(** In-band, timeout-driven failure suspicion.

    Replaces the simulator-omniscient failure detector the failover
    sequencer used to derive from fault-plan instants: every node
    broadcasts heartbeats on the fault-injected wire, and each node
    suspects a peer once no fresh evidence has arrived for
    [suspect_after] ticks.  Suspicion is only ever an opinion — a
    falsely suspected live node keeps running and is fenced by the
    epoch protocol, not assumed dead.

    Incarnation numbers make suspicion monotone and refutable: each
    beat carries the sender's incarnation, and an observer clears a
    suspicion only on a beat with a strictly higher incarnation.  A
    node bumps its own incarnation when it restarts from a crash, and
    when a doubt message tells it some observer suspects its current
    incarnation (the SWIM refutation rule) — so false suspicions heal
    after partitions without ever un-suspecting within an incarnation.

    Heartbeats and doubts are fire-and-forget: judged by the fault
    injector at send time, delayed by the latency model, re-checked
    against the destination's liveness at delivery, never
    retransmitted, and scheduled as daemon events so a perpetual
    heartbeat stream never keeps the simulation from quiescing. *)

type config = {
  heartbeat_every : int;  (** beat period (virtual time) *)
  suspect_after : int;
      (** suspect a peer once no evidence arrived for this long; must
          comfortably exceed the latency bound plus one beat period or
          false suspicions become routine *)
}

val default_config : config

(** Raise [Invalid_argument] unless both periods are positive and
    [suspect_after] exceeds [heartbeat_every]: a detector that suspects
    no later than it hears beats never stops suspecting, and a run
    under it never ends. *)
val validate_config : config -> unit
val pp_config : Format.formatter -> config -> unit

type stats = {
  beats_sent : int;
  beats_delivered : int;
  suspicions : int;  (** suspicion edges raised, across all observers *)
  false_suspicions : int;  (** raised while the subject was in fact up *)
  refutations : int;  (** suspicions cleared by a higher incarnation *)
  doubts : int;  (** doubt messages sent back to suspected senders *)
}

type t

(** [create engine ~n ~latency ~rng] starts the heartbeat loop for
    [n] nodes.  Crash windows are read from [fault]'s plan only to
    schedule each node's own restart bookkeeping (incarnation bump and
    evidence reset — self-knowledge, not omniscience); suspicion of
    other nodes is driven purely by message arrival. *)
val create :
  ?config:config ->
  ?fault:Fault.t ->
  Engine.t ->
  n:int ->
  latency:Latency.t ->
  rng:Rng.t ->
  t

val config : t -> config

(** Does [observer] currently suspect [subject]? *)
val suspects : t -> observer:int -> subject:int -> bool

(** Smallest node id [observer] does not suspect (itself included):
    the node [observer] believes should coordinate. *)
val candidate : t -> observer:int -> int

(** [subject]'s current incarnation number. *)
val incarnation : t -> node:int -> int

(** Subscribe to suspicion edges; called with [suspected = true] when
    a suspicion is raised and [false] when one clears (refutation or
    the observer's own restart reset). *)
val on_change : t -> (observer:int -> subject:int -> suspected:bool -> unit) -> unit

val stats : t -> stats
