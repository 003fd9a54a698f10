(** Attiya–Welch-style clock-based linearizable store: updates apply
    at every replica at [issue time + delta] by the (perfectly
    synchronized) clock, queries read locally.  m-linearizable while
    every message arrives within [delta]; a late message makes the
    receiving replica apply on arrival and diverge — the failure mode
    the paper's Figure 6 protocol eliminates by assuming nothing about
    clocks or delays.

    Same recording limitation as {!Causal_store}: update procedures'
    write sets and values must be data-independent (straight-line blind
    writes). *)

(** The delay bound the store assumes, in ticks: an update applies
    [delta + 1] ticks after it was issued. *)
val delta : int

(** [fault] attaches a fault injector: all of the protocol's traffic
    then runs over the reliable ack/retransmit transport and survives
    message loss, partitions and crash/recovery windows. *)
val create :
  ?fault:Mmc_sim.Fault.t ->
  Mmc_sim.Engine.t ->
  n:int ->
  n_objects:int ->
  latency:Mmc_sim.Latency.t ->
  rng:Mmc_sim.Rng.t ->
  recorder:Recorder.t ->
  Store.t
