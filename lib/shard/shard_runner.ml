(** Closed-loop workload runner for the sharded store (see the
    interface). *)

open Mmc_core
open Mmc_sim
open Mmc_store

type result = {
  placement : Placement.t;
  recorders : Recorder.t array;
  router : Router.stats;
  duration : Types.time;
  messages : int;
  messages_by_shard : int array;
  events : int;
  completed : int;
  query_latency : Stats.summary;
  update_latency : Stats.summary;
  fault : Fault.t option;
  recovery : Rstore.handle option array;
  fastpath : Seg_store.handle option array;
}

let run ~seed ?placement (cfg : Runner.config) ~workload =
  let placement =
    match placement with
    | Some p -> p
    | None -> Placement.hash ~n_shards:1 ~n_objects:cfg.Runner.n_objects
  in
  let sharded = ref None in
  let loop =
    Runner.closed_loop ~seed cfg ~workload ~store:(fun fault engine rng ->
        let s = Shard_store.create ?fault cfg engine ~placement ~rng in
        sharded := Some s;
        Shard_store.store s)
  in
  let sharded = Option.get !sharded in
  (* Seg shards: tail entries join each shard's synchronization order
     before anyone stitches the traces. *)
  let fastpath = Shard_store.fastpath sharded in
  Array.iter
    (Option.iter (fun (h : Seg_store.handle) -> h.Seg_store.finalize ()))
    fastpath;
  {
    placement;
    recorders = Shard_store.recorders sharded;
    router = Router.stats (Shard_store.router sharded);
    duration = loop.Runner.Loop.duration;
    messages = Store.messages_sent loop.Runner.Loop.store;
    messages_by_shard = Shard_store.messages_by_shard sharded;
    events = loop.Runner.Loop.events;
    completed = loop.Runner.Loop.completed;
    query_latency = loop.Runner.Loop.query_latency;
    update_latency = loop.Runner.Loop.update_latency;
    fault = loop.Runner.Loop.fault;
    recovery = Shard_store.recovery sharded;
    fastpath;
  }

let check ?oracle ?(kind = Constraints.WW) res ~flavour =
  Check_sharded.check ?oracle ~kind res.placement res.recorders ~flavour
