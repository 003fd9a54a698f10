(** Closed-loop workload runner: sequential clients driving a store to
    quiescence; returns the recorded history, the timestamp table and
    performance measurements. *)

open Mmc_core

type config = {
  n_procs : int;
  n_objects : int;
  ops_per_proc : int;
  think_lo : int;  (** >= 1 keeps process subhistories sequential *)
  think_hi : int;
  latency : Mmc_sim.Latency.t;
  abcast_impl : Mmc_broadcast.Abcast.impl;
  kind : Store.kind;
  aw_delta : int;  (** delay bound assumed by the Aw store *)
  fault : Mmc_sim.Fault.plan;
      (** faults injected below the store's transport;
          {!Mmc_sim.Fault.none} (the default) leaves the channels
          reliable *)
  reliable : Mmc_sim.Reliable.config option;
      (** retry budget of the ack/retransmit layer under faults
          ([None] = {!Mmc_sim.Reliable.default}); threaded to the
          broadcast and catch-up transports of the msc/mlin/rmsc
          stores *)
  recovery : Mmc_recovery.Rlog.policy;
      (** WAL checkpoint/gap-poll policy of the [Rmsc] store *)
  delivery : Rstore.mode;
      (** the [Rmsc] store's delivery rule: quorum-stable (default)
          or optimistic (kept for comparison) *)
  detector : Mmc_sim.Detector.config option;
      (** failure-detector tuning for the [Rmsc] broadcast ([None] =
          {!Mmc_sim.Detector.default_config}) *)
  batch : Mmc_broadcast.Batch.t;
      (** broadcast batching / tree-dissemination knobs
          ({!Mmc_broadcast.Batch.unbatched} by default); changes only
          the wire framing, never the delivered order *)
  fastpath : Mmc_fastpath.Classify.mode;
      (** the [Seg] store's classifier: [Sound] (default), [Off]
          (everything sequenced — the A/B baseline), or the
          deliberately-wrong [Trust_labels] used by the oracle test *)
}

val default_config : config

type result = {
  history : History.t;
  stamps : (Types.mop_id, Version_vector.stamped) Hashtbl.t;
  sync_order : Types.mop_id list;
      (** synchronized updates in atomic-broadcast order (empty for
          stores without a global update order) *)
  duration : Types.time;  (** virtual time at quiescence *)
  messages : int;
  events : int;
  completed : int;
  query_latency : Mmc_sim.Stats.summary;
  update_latency : Mmc_sim.Stats.summary;
  fault : Mmc_sim.Fault.t option;
      (** the run's fault injector — drop/retransmission/recovery
          counters — when a fault plan was configured *)
  recovery : Rstore.handle option;
      (** the [Rmsc] store's recovery introspection (cursors,
          convergence, WAL/catch-up counters) *)
  fastpath : Seg_store.handle option;
      (** the [Seg] store's fast-path introspection (local/escalated/
          flush counters; finalize already called by {!run}) *)
}

(** [ownership] overrides the [Seg] store's object-home map (the
    sharded store homes by {e global} id); [fsink] receives its
    introspection handle — callers driving the engine themselves must
    invoke [finalize] after quiescence, before building the
    history. *)
val make_store :
  ?fault:Mmc_sim.Fault.t ->
  ?sink:(Rstore.handle -> unit) ->
  ?tail:Seg_store.tail_order ->
  ?ownership:Mmc_fastpath.Ownership.t ->
  ?fsink:(Seg_store.handle -> unit) ->
  config ->
  Mmc_sim.Engine.t ->
  rng:Mmc_sim.Rng.t ->
  recorder:Recorder.t ->
  Store.t

(** [check_trace result ~flavour] — Theorem-7 admissibility of the
    recorded trace: the flavour's base relation plus the recorded
    atomic-broadcast order, checked under [kind] (default WW) by the
    chain-decomposed check ({!Mmc_core.Check_constrained.check_chain}),
    which never builds an n×n closure. *)
val check_trace :
  ?kind:Constraints.kind ->
  result ->
  flavour:History.flavour ->
  Check_constrained.result

(** The same full-trace check from a bare history plus synchronization
    order — for callers that assembled the trace themselves (streamed
    NDJSON files, the soak's full-verification cross-check) rather
    than through {!run}. *)
val check_history :
  ?kind:Constraints.kind ->
  History.t ->
  sync_order:Types.mop_id list ->
  flavour:History.flavour ->
  Check_constrained.result

(** [run ~seed cfg ~workload] — [workload rng ~proc ~step] produces the
    [step]-th m-operation of client [proc]. *)
val run :
  seed:int ->
  config ->
  workload:(Mmc_sim.Rng.t -> proc:int -> step:int -> Prog.mprog) ->
  result
