(** The m-sequential-consistency protocol (paper, Figure 4): update
    m-operations are atomically broadcast and applied everywhere in
    delivery order; query m-operations execute immediately against the
    local copy — zero communication. *)

(** The protocol's replicated half, which Figure 6 shares unchanged:
    each replica's copy and version vector, and the update path. *)
type replicas = {
  xs : Mmc_core.Value.t array array;  (** [xs.(i)]: replica [i]'s copy *)
  tss : int array array;  (** [tss.(i)]: replica [i]'s version vector *)
  update : proc:int -> Prog.mprog -> k:(Mmc_core.Value.t -> unit) -> unit;
      (** invoke an update at [proc]: atomically broadcast it (A1);
          every replica applies it in delivery order, bumping its
          version vector (A2), and the origin records it, with its
          broadcast position as synchronization position, and calls
          [k] with its result *)
  messages_sent : unit -> int;  (** the broadcast's messages so far *)
}

(** [replicas] creates the replicas and the broadcast, drawing one
    stream from [rng] for the broadcast; the arguments are those of
    {!create}. *)
val replicas :
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
  replicas

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
