(** Sharding experiment (S1): shard count x cross-shard ratio.

    Sweeps the sharded store over S in {1, 2, 4, 8} shards and a
    cross-shard m-operation ratio in {0, 0.05, 0.2}, reporting the
    price of partitioning (messages per m-operation, update latency
    p50/p95/p99, sub-invocation segments) and the verification story:

    - [agree] — the decomposed chain check pipeline must reach
      the batch {!Mmc_core.Check_constrained} verdict on the stitched
      history in every run (a disagreement is a checker bug);
    - [composes] — how often per-shard admissibility implied stitched
      admissibility.  Less than full is not a bug: Msc-style
      conditions are not compositional (Gotsman et al.), and the runs
      where composition fails are exactly the cross-shard staleness
      anomalies the stitched check exists to catch;
    - per-shard vs stitched check time — the (n/S)^3-per-shard closure
      against the n^3 global one, the Theorem-7 payoff that keeps
      verification polynomial while throughput scales out. *)

open Mmc_core
open Mmc_shard
open Mmc_store

let spec =
  {
    Mmc_workload.Spec.default with
    n_objects = 16;
    read_ratio = 0.5;
    skew = 0.8;
  }

let run_sharded ?(procs = 4) ?(ops = 15) ~seed ~n_shards ~cross () =
  let placement =
    Placement.hash ~n_shards ~n_objects:spec.Mmc_workload.Spec.n_objects
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = spec.Mmc_workload.Spec.n_objects;
      ops_per_proc = ops;
    }
  in
  Shard_runner.run ~seed ~placement cfg
    ~workload:
      (Mmc_workload.Generator.sharded ~cross_shard_ratio:cross placement spec)

(** One (S, cross-ratio) cell aggregated over seeds. *)
type cell = {
  msgs_per_op : float;
  u_p50 : int;  (** worst update-latency percentiles over the seeds *)
  u_p95 : int;
  u_p99 : int;
  cross_ops : int;
  segments : int;
  agree : int;  (** runs where chain == batch on the stitched history *)
  composes : int;  (** runs where per-shard verdicts implied the stitched one *)
  of_ : int;
  shard_ms : float;  (** summed per-shard check time over the seeds *)
  global_ms : float;  (** summed stitched batch check time *)
}

let measure ?procs ?ops ~seeds ~n_shards ~cross () =
  let acc =
    ref
      {
        msgs_per_op = 0.;
        u_p50 = 0;
        u_p95 = 0;
        u_p99 = 0;
        cross_ops = 0;
        segments = 0;
        agree = 0;
        composes = 0;
        of_ = seeds;
        shard_ms = 0.;
        global_ms = 0.;
      }
  in
  for seed = 0 to seeds - 1 do
    let res = run_sharded ?procs ?ops ~seed ~n_shards ~cross () in
    let flavour = History.Msc in
    let _, shard_ms =
      Table.time_ms (fun () ->
          Check_sharded.check_shards res.Shard_runner.recorders ~flavour)
    in
    let st =
      Shard_recorder.stitch res.Shard_runner.placement
        res.Shard_runner.recorders
    in
    let _, global_ms =
      Table.time_ms (fun () ->
          Check_constrained.check_relation st.Shard_recorder.history
            (Check_sharded.stitched_relation st ~flavour)
            Constraints.WW)
    in
    let v = Shard_runner.check res ~flavour in
    let a = !acc in
    acc :=
      {
        a with
        msgs_per_op =
          a.msgs_per_op
          +. (float_of_int res.Shard_runner.messages
             /. float_of_int (max 1 res.Shard_runner.completed)
             /. float_of_int seeds);
        u_p50 = max a.u_p50 res.Shard_runner.update_latency.Mmc_sim.Stats.p50;
        u_p95 = max a.u_p95 res.Shard_runner.update_latency.Mmc_sim.Stats.p95;
        u_p99 = max a.u_p99 res.Shard_runner.update_latency.Mmc_sim.Stats.p99;
        cross_ops = a.cross_ops + res.Shard_runner.router.Router.cross_shard;
        segments = a.segments + res.Shard_runner.router.Router.segments;
        agree = (a.agree + if v.Check_sharded.agree then 1 else 0);
        composes = (a.composes + if v.Check_sharded.composes then 1 else 0);
        shard_ms = a.shard_ms +. shard_ms;
        global_ms = a.global_ms +. global_ms;
      }
  done;
  !acc

(** S1 — shard count x cross-shard ratio over the msc store. *)
let s1 ?(shards = [ 1; 2; 4; 8 ]) ?(ratios = [ 0.0; 0.05; 0.2 ]) ?(seeds = 3)
    ?(procs = 4) ?(ops = 15) () =
  let rows =
    List.concat_map
      (fun n_shards ->
        List.map
          (fun cross ->
            let c = measure ~procs ~ops ~seeds ~n_shards ~cross () in
            [
              Table.i n_shards;
              Table.f2 cross;
              Table.f1 c.msgs_per_op;
              Table.i c.u_p50;
              Table.i c.u_p95;
              Table.i c.u_p99;
              Table.i c.cross_ops;
              Table.i c.segments;
              Fmt.str "%d/%d" c.agree c.of_;
              Fmt.str "%d/%d" c.composes c.of_;
              Table.f1 c.shard_ms;
              Table.f1 c.global_ms;
            ])
          ratios)
      shards
  in
  {
    Table.id = "S1";
    title = "sharding: shard count x cross-shard ratio (msc per shard)";
    header =
      [
        "S";
        "cross";
        "msg/op";
        "u p50";
        "u p95";
        "u p99";
        "x-ops";
        "segs";
        "agree";
        "composes";
        "shard ms";
        "global ms";
      ];
    rows;
    notes =
      [
        "agree must be full: the decomposed chain pipeline and the \
         batch checker see the same stitched history and relation";
        "composes < full at S > 1 is the expected Msc composition anomaly \
         (per-shard admissible, globally not) — the stitched check is what \
         catches it; at S = 1 it must be full";
        "msg/op grows with S and cross ratio: each shard runs its own \
         broadcast, cross-shard m-operations pay one sub-invocation per \
         shard touched";
        "shard ms vs global ms: per-shard closures cost ~(n/S)^3 each \
         against n^3 once; at this table's trace size fixed per-shard \
         costs still dominate — the asymptotic win is the verify-S \
         trajectory in BENCH_core.json (n = 600: 16.9 ms at S = 1 down \
         to 2.6 ms at S = 8)";
      ];
  }
