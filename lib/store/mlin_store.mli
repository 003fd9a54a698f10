(** The m-linearizability protocol (paper, Figure 6): updates as in
    the m-SC protocol ({!Msc_store.replicas}); a query asks every
    replica for its copy and timestamp, keeps the freshest (replica
    timestamps are totally ordered — prefixes of the broadcast
    sequence), and reads from it once all [n] replies arrived.  No
    clock synchronization or delay bound is assumed. *)

(** [fault] attaches a fault injector: all of the protocol's traffic
    then runs over the reliable ack/retransmit transport and survives
    message loss, partitions and crash/recovery windows.  [batch]
    configures sequencer-side batching and tree dissemination in the
    underlying broadcast ({!Mmc_broadcast.Batch}); it never changes
    the delivered order, only the wire framing. *)
val create :
  ?fault:Mmc_sim.Fault.t ->
  ?reliable:Mmc_sim.Reliable.config ->
  ?batch:Mmc_broadcast.Batch.t ->
  Mmc_sim.Engine.t ->
  n:int ->
  n_objects:int ->
  latency:Mmc_sim.Latency.t ->
  rng:Mmc_sim.Rng.t ->
  abcast_impl:Mmc_broadcast.Abcast.impl ->
  recorder:Recorder.t ->
  Store.t
