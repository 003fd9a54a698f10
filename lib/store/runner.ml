(** Closed-loop workload runner.

    Drives [n_procs] sequential clients against a store inside the
    simulator: each client issues its next m-operation a think time
    after the previous response (processes are sequential, so histories
    are well-formed).  Runs to quiescence and returns the recorded
    history, the timestamp table for the P 5.x validators, and
    performance measurements. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast

type config = {
  n_procs : int;
  n_objects : int;
  ops_per_proc : int;
  think_lo : int;  (** >= 1 keeps process subhistories sequential *)
  think_hi : int;
  latency : Latency.t;
  abcast_impl : Abcast.impl;
  kind : Store.kind;
  fault : Fault.plan;
      (** faults injected below the store's transport; {!Fault.none}
          (the default) leaves the channels reliable *)
  reliable : Reliable.config option;
      (** retry budget of the ack/retransmit layer under faults
          ([None] = {!Reliable.default}); threaded to the broadcast
          and catch-up transports of the msc/mlin/rmsc stores *)
  recovery : Mmc_recovery.Rlog.policy;
      (** WAL checkpoint/gap-poll policy of the [Rmsc] store *)
  delivery : Rstore.mode;
      (** the [Rmsc] store's delivery rule: quorum-stable (default)
          or optimistic (the pre-stability behaviour, kept for
          comparison) *)
  detector : Detector.config option;
      (** failure-detector tuning for the [Rmsc] broadcast ([None] =
          {!Mmc_sim.Detector.default_config}) *)
  batch : Batch.t;
      (** broadcast batching / tree-dissemination knobs
          ({!Mmc_broadcast.Batch.unbatched} by default); changes only
          the wire framing, never the delivered order *)
  fastpath : Mmc_fastpath.Classify.mode;
      (** the [Seg] store's classifier: [Sound] (default), [Off]
          (everything sequenced — the A/B baseline), or the
          deliberately-wrong [Trust_labels] used by the oracle test *)
}

let default_config =
  {
    n_procs = 4;
    n_objects = 8;
    ops_per_proc = 20;
    think_lo = 1;
    think_hi = 10;
    latency = Latency.default;
    abcast_impl = Abcast.Sequencer_impl;
    kind = Store.Msc;
    fault = Fault.none;
    reliable = None;
    recovery = Mmc_recovery.Rlog.default_policy;
    delivery = Rstore.Stable;
    detector = None;
    batch = Batch.unbatched;
    fastpath = Mmc_fastpath.Classify.Sound;
  }

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
  query_latency : Stats.summary;
  update_latency : Stats.summary;
  fault : Fault.t option;
      (** the run's fault injector — drop/retransmission/recovery
          counters — when a fault plan was configured *)
  recovery : Rstore.handle option;
      (** the [Rmsc] store's recovery introspection (cursors,
          convergence, WAL/catch-up counters) *)
  fastpath : Seg_store.handle option;
      (** the [Seg] store's fast-path introspection (local/escalated/
          flush counters; finalize already called by {!run}) *)
}

let make_store ?fault ?sink ?tail ?ownership ?fsink cfg engine ~rng ~recorder =
  match cfg.kind with
  | Store.Msc ->
    Msc_store.create ?fault ?reliable:cfg.reliable ~batch:cfg.batch engine
      ~n:cfg.n_procs ~n_objects:cfg.n_objects ~latency:cfg.latency ~rng
      ~abcast_impl:cfg.abcast_impl ~recorder
  | Store.Mlin ->
    Mlin_store.create ?fault ?reliable:cfg.reliable ~batch:cfg.batch engine
      ~n:cfg.n_procs ~n_objects:cfg.n_objects ~latency:cfg.latency ~rng
      ~abcast_impl:cfg.abcast_impl ~recorder
  | Store.Rmsc ->
    Rstore.create ?fault ?reliable:cfg.reliable ~batch:cfg.batch
      ?detector:cfg.detector ~mode:cfg.delivery ~policy:cfg.recovery ?sink
      engine ~n:cfg.n_procs ~n_objects:cfg.n_objects ~latency:cfg.latency ~rng
      ~abcast_impl:cfg.abcast_impl ~recorder
  | Store.Central ->
    Central_store.create ?fault engine ~n:cfg.n_procs ~n_objects:cfg.n_objects
      ~latency:cfg.latency ~rng ~recorder
  | Store.Local ->
    Local_store.create engine ~n:cfg.n_procs ~n_objects:cfg.n_objects ~recorder
  | Store.Causal ->
    Causal_store.create ?fault engine ~n:cfg.n_procs ~n_objects:cfg.n_objects
      ~latency:cfg.latency ~rng ~recorder
  | Store.Lock ->
    Lock_store.create ?fault engine ~n:cfg.n_procs ~n_objects:cfg.n_objects
      ~latency:cfg.latency ~rng ~recorder
  | Store.Aw ->
    Aw_store.create ?fault engine ~n:cfg.n_procs ~n_objects:cfg.n_objects
      ~latency:cfg.latency ~rng ~recorder
  | Store.Seg ->
    Seg_store.create ?fault ?reliable:cfg.reliable ~batch:cfg.batch
      ~mode:cfg.fastpath ?tail ?ownership ?fsink engine ~n:cfg.n_procs
      ~n_objects:cfg.n_objects ~latency:cfg.latency ~rng
      ~abcast_impl:cfg.abcast_impl ~recorder

(** [check_trace result ~flavour] — Theorem-7 admissibility of the
    recorded trace: the flavour's base relation plus the recorded
    atomic-broadcast order as extra edges, checked under [kind]
    (default WW — the broadcast totally orders updates) by the
    chain-decomposed check ({!Mmc_core.Check_constrained.check_chain}):
    per-process frontier vectors over a sparse edge list, no n×n
    closure. *)
let check_history ?(kind = Constraints.WW) h ~sync_order ~flavour =
  Check_constrained.check_chain h ~flavour ~sync:[ sync_order ] kind

let check_trace ?kind (res : result) ~flavour =
  check_history ?kind res.history ~sync_order:res.sync_order ~flavour

type judgement = {
  handle : Rstore.handle;
  check : Check_constrained.result;
  converged : bool;
  problems : string list;
  restarts : int;
  given_up : int;
  wal : Mmc_recovery.Rlog.stats;
}

(* The replicas' WAL counters, summed field by field. *)
let total_wal logs =
  let sum f = Array.fold_left (fun t s -> t + f s) 0 logs in
  let open Mmc_recovery.Rlog in
  {
    appends = sum (fun s -> s.appends);
    checkpoints = sum (fun s -> s.checkpoints);
    truncated = sum (fun s -> s.truncated);
    replayed = sum (fun s -> s.replayed);
    torn = sum (fun s -> s.torn);
    corrupt = sum (fun s -> s.corrupt);
    silent = sum (fun s -> s.silent);
    repaired = sum (fun s -> s.repaired);
    scrubbed = sum (fun s -> s.scrubbed);
    ckpt_fallbacks = sum (fun s -> s.ckpt_fallbacks);
    reclaimed_sectors = sum (fun s -> s.reclaimed_sectors);
    resident_bytes = sum (fun s -> s.resident_bytes);
  }

let judge cfg res =
  let handle =
    match res.recovery with
    | Some h -> h
    | None -> invalid_arg "Runner.judge: not a run of the rmsc store"
  in
  let given_up, restarts =
    match res.fault with
    | None -> (0, 0)
    | Some f ->
      let c = Fault.counts f in
      (c.Fault.abandoned, c.Fault.restarts)
  in
  (* The counter oracle, one message per failed check: no operation
     lost, every wipe-crash restarted and completed its recovery. *)
  let expected = cfg.n_procs * cfg.ops_per_proc in
  let wipes = List.length (Fault.wipes cfg.fault) in
  let recoveries = handle.recoveries () in
  let unless ok fmt = Fmt.kstr (fun s -> if ok then None else Some s) fmt in
  let problems =
    List.filter_map Fun.id
      [
        unless (res.completed = expected) "completed %d ops, expected %d"
          res.completed expected;
        unless (recoveries = wipes) "%d recoveries completed for %d wipe-crashes"
          recoveries wipes;
        unless (restarts = wipes) "%d restarts recorded for %d wipe-crashes"
          restarts wipes;
      ]
  in
  {
    handle;
    check = check_trace res ~flavour:(Store.flavour cfg.kind);
    converged = handle.converged ();
    problems;
    restarts;
    given_up;
    wal = total_wal (handle.log_stats ());
  }

module Loop = struct
  type t = {
    store : Store.t;
    duration : Types.time;
    events : int;
    completed : int;
    query_latency : Stats.summary;
    update_latency : Stats.summary;
    fault : Fault.t option;
  }
end

let closed_loop ~seed cfg ~store ~workload =
  if cfg.think_lo < 1 then invalid_arg "Runner.closed_loop: think_lo must be >= 1";
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let store_rng = Rng.split rng in
  let query_stats = Stats.create () in
  let update_stats = Stats.create () in
  let completed = ref 0 in
  let client_rngs = Array.init cfg.n_procs (fun _ -> Rng.split rng) in
  (* The injector's stream is split only when a plan is present, after
     the streams above: fault-free runs draw identically to a build
     without fault injection — seeds keep meaning the same runs. *)
  Fault.validate ~n:cfg.n_procs cfg.fault;
  let fault =
    if Fault.is_none cfg.fault then None
    else Some (Fault.create cfg.fault ~rng:(Rng.split rng))
  in
  let store = store fault engine store_rng in
  let rec step proc i () =
    if i < cfg.ops_per_proc then begin
      let m = workload client_rngs.(proc) ~proc ~step:i in
      let t0 = Engine.now engine in
      let is_query = Prog.is_query m in
      Store.invoke store ~proc m ~k:(fun _result ->
          incr completed;
          let lat = Engine.now engine - t0 in
          Stats.add (if is_query then query_stats else update_stats) lat;
          let think =
            Rng.int_range client_rngs.(proc) ~lo:cfg.think_lo ~hi:cfg.think_hi
          in
          Engine.schedule engine ~delay:think (step proc (i + 1)))
    end
  in
  for proc = 0 to cfg.n_procs - 1 do
    let start = Rng.int_range client_rngs.(proc) ~lo:cfg.think_lo ~hi:cfg.think_hi in
    Engine.schedule engine ~delay:start (step proc 0)
  done;
  Engine.run engine;
  {
    Loop.store;
    duration = Engine.now engine;
    events = Engine.executed engine;
    completed = !completed;
    query_latency = Stats.summarize query_stats;
    update_latency = Stats.summarize update_stats;
    fault;
  }

(** [run ~seed cfg ~workload] — [workload rng ~proc ~step] produces the
    [step]-th m-operation of client [proc]. *)
let run ~seed cfg ~workload =
  let recorder = Recorder.create ~n_objects:cfg.n_objects in
  let handle = ref None in
  let fhandle = ref None in
  let loop =
    closed_loop ~seed cfg ~workload ~store:(fun fault engine rng ->
        make_store ?fault
          ~sink:(fun h -> handle := Some h)
          ~fsink:(fun h -> fhandle := Some h)
          cfg engine ~rng ~recorder)
  in
  (* The Seg store's tail entries (never flushed by quiescence) join
     the synchronization order before the history is built. *)
  Option.iter (fun (h : Seg_store.handle) -> h.finalize ()) !fhandle;
  let history, stamps, sync_order = Recorder.to_history_full recorder in
  {
    history;
    stamps;
    sync_order;
    duration = loop.Loop.duration;
    messages = Store.messages_sent loop.Loop.store;
    events = loop.Loop.events;
    completed = loop.Loop.completed;
    query_latency = loop.Loop.query_latency;
    update_latency = loop.Loop.update_latency;
    fault = loop.Loop.fault;
    recovery = !handle;
    fastpath = !fhandle;
  }
