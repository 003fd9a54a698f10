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
  if cfg.Runner.think_lo < 1 then
    invalid_arg "Shard_runner.run: think_lo must be >= 1";
  let placement =
    match placement with
    | Some p -> p
    | None -> Placement.hash ~n_shards:1 ~n_objects:cfg.Runner.n_objects
  in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* Same stream-splitting order as {!Mmc_store.Runner.run}: store,
     clients, then the optional fault injector. *)
  let store_rng = Rng.split rng in
  let query_stats = Stats.create () in
  let update_stats = Stats.create () in
  let completed = ref 0 in
  let client_rngs = Array.init cfg.Runner.n_procs (fun _ -> Rng.split rng) in
  Fault.validate ~n:cfg.Runner.n_procs cfg.Runner.fault;
  let fault =
    if Fault.is_none cfg.Runner.fault then None
    else Some (Fault.create cfg.Runner.fault ~rng:(Rng.split rng))
  in
  let sharded = Shard_store.create ?fault cfg engine ~placement ~rng:store_rng in
  let store = Shard_store.store sharded in
  let rec step proc i () =
    if i < cfg.Runner.ops_per_proc then begin
      let m = workload client_rngs.(proc) ~proc ~step:i in
      let t0 = Engine.now engine in
      let is_query = Prog.is_query m in
      Store.invoke store ~proc m ~k:(fun _result ->
          incr completed;
          let lat = Engine.now engine - t0 in
          Stats.add (if is_query then query_stats else update_stats) lat;
          let think =
            Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
              ~hi:cfg.Runner.think_hi
          in
          Engine.schedule engine ~delay:think (step proc (i + 1)))
    end
  in
  for proc = 0 to cfg.Runner.n_procs - 1 do
    let start =
      Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
        ~hi:cfg.Runner.think_hi
    in
    Engine.schedule engine ~delay:start (step proc 0)
  done;
  Engine.run engine;
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
    duration = Engine.now engine;
    messages = Store.messages_sent store;
    messages_by_shard = Shard_store.messages_by_shard sharded;
    events = Engine.executed engine;
    completed = !completed;
    query_latency = Stats.summarize query_stats;
    update_latency = Stats.summarize update_stats;
    fault;
    recovery = Shard_store.recovery sharded;
    fastpath;
  }

let check ?oracle ?(kind = Constraints.WW) res ~flavour =
  Check_sharded.check ?oracle ~kind res.placement res.recorders ~flavour
