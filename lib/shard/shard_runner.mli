(** Closed-loop workload runner for the sharded store: the sharded
    counterpart of {!Mmc_store.Runner.run}.

    Drives [cfg.n_procs] sequential clients against a {!Shard_store}
    (one per-shard store instance of [cfg.kind] each, fronted by the
    {!Router}), runs to quiescence and returns everything needed to
    verify and measure the run.  The per-shard traces are not stitched
    here: {!Shard_recorder.stitch} [res.placement res.recorders] builds
    the global history for callers that need it, and {!check} stitches
    on its own. *)

open Mmc_core
open Mmc_sim
open Mmc_store

type result = {
  placement : Placement.t;
  recorders : Recorder.t array;  (** per-shard raw traces (local ids) *)
  router : Router.stats;
  duration : Types.time;  (** virtual time at quiescence *)
  messages : int;  (** summed over shards *)
  messages_by_shard : int array;
  events : int;
  completed : int;
  query_latency : Stats.summary;
  update_latency : Stats.summary;
  fault : Fault.t option;
      (** the shared fault injector when a plan was configured *)
  recovery : Mmc_store.Rstore.handle option array;
      (** per-shard recovery handles ([Rmsc] shards only) *)
  fastpath : Mmc_store.Seg_store.handle option array;
      (** per-shard fast-path handles ([Seg] shards only; finalize
          already called) *)
}

(** [run ~seed cfg ~placement ~workload] — [workload rng ~proc ~step]
    produces the [step]-th m-operation of client [proc] (over global
    object ids; the router translates).  [placement] defaults to
    {!Placement.hash} with a single shard, which makes the sharded
    runner degenerate to {!Mmc_store.Runner.run}'s topology.
    [cfg.n_objects] must match the placement's object space. *)
val run :
  seed:int ->
  ?placement:Placement.t ->
  Runner.config ->
  workload:(Rng.t -> proc:int -> step:int -> Prog.mprog) ->
  result

(** [check result ~flavour] — per-shard Theorem-7 checks plus the
    stitched global check ({!Check_sharded.check}); [kind] defaults
    to WW.  [~oracle:false] skips the batch cross-check. *)
val check :
  ?oracle:bool ->
  ?kind:Constraints.kind ->
  result ->
  flavour:History.flavour ->
  Check_sharded.t
