(* Benchmark harness: one Bechamel test (or group) per experiment id of
   DESIGN.md / EXPERIMENTS.md, measuring the CPU cost of the kernels
   behind each table, followed by the experiment tables themselves
   (simulated-time metrics).

   Groups:
     checker/T1-*  exhaustive vs Theorem-7 admissibility checking
     checker/T2-*  single-object polynomial vs multi-object exhaustive
     checker/T7    constrained-checker corpus pass
     core/*        large-history Theorem-7 / legality / closure kernels
                   (n in {50,100,200,400}), the perf-trajectory set:
                   the dense reference pipeline (theorem7-ww-N) and
                   the chain-decomposed check on the same inputs
                   (theorem7-chain-N); with --json also asserts equal
                   verdicts and a >= 10x chain speedup at n = 400
     protocol/P1..P3, C1, J1   store simulations (whole runs)
     broadcast/P4  atomic broadcast simulations
     objects/P5    DCAS contention loop
     figures/F1-F2 paper-figure checking

     shard/*       sharded-store runs and per-shard verification,
                   S in {1,2,4,8}; with --json also records
                   messages/op, latency percentiles and
                   verified-ops-per-sec per shard count

     stream/*      streaming verification: windowed Theorem-7 checker
                   (two window sizes) vs the full-trace
                   chain-decomposed check on one closed-loop trace; with --json also
                   records one-shot soak metrics (throughput, p99,
                   resident/recycled checker words, retired count)
                   and asserts the flat-memory ceiling, the PASS
                   verdict and the seeded-corruption FAIL

     sim/*         simulator kernels: engine schedule+run with 8, 256
                   and 4096 events queued, and a WAL scrub pass over
                   80 frames, every frame read vs an unchanged repeat


   Usage: main.exe [--only GROUP]... [--json FILE] [--seed S]
                   [--compare OLD.json] [--compare-warn] [--quick]
     --only GROUP   run the named group(s) only (repeatable, e.g.
                    `--only core --only shard`), skip the experiment
                    tables
     --json FILE    also write the estimates as JSON (name -> ns/run),
                    the machine-readable perf trajectory tracked across
                    PRs (BENCH_core.json at the repo root)
     --seed S       base PRNG seed for every generated input (default 1,
                    which reproduces the recorded BENCH_core.json runs)
     --compare OLD  diff this run against a previously recorded JSON
                    trajectory: print old/new/ratio for every key in
                    both, and exit 3 if any `mmc/core/*` estimate
                    regressed by more than 25% (`make bench-diff`)
     --compare-warn with --compare, report regressions but exit 0 (for
                    CI machines whose perf differs from the recorded
                    host)
     --quick        smoke mode: reduced input sizes, short bechamel
                    quota and few metric repeats — checks that the
                    harness runs, not the numbers (CI `bench-smoke`) *)

open Bechamel
open Toolkit
open Mmc_core

(* --- command line (parsed before the inputs: the generator seeds
   depend on it) --- *)

let group_names =
  [ "T1"; "T2"; "T7"; "core"; "protocol"; "P4"; "P5"; "figures"; "shard";
    "fastpath"; "stream"; "recovery"; "chaos"; "sim" ]

let only, json_file, cli_seed, compare_file, compare_warn, cli_quick =
  let only = ref [] and json = ref None in
  let seed = ref 1 in
  let compare_file = ref None and compare_warn = ref false in
  let quick = ref false in
  let usage code =
    Fmt.epr
      "usage: %s [--only GROUP]... [--json FILE] [--seed S] \
       [--compare OLD.json] [--compare-warn] [--quick]@.  \
       groups: %s@."
      Sys.argv.(0)
      (String.concat " " group_names);
    exit code
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None ->
      Fmt.epr "%s expects an integer, got %S@." name v;
      usage 2
  in
  let rec parse = function
    | [] -> ()
    | "--only" :: g :: rest ->
      if not (List.mem g group_names) then begin
        Fmt.epr "unknown group %S@." g;
        usage 2
      end;
      only := !only @ [ g ];
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_arg "--seed" s;
      parse rest
    | "--compare" :: f :: rest ->
      compare_file := Some f;
      parse rest
    | "--compare-warn" :: rest ->
      compare_warn := true;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | ("--help" | "-h") :: _ -> usage 0
    | arg :: _ ->
      Fmt.epr "unknown argument %S@." arg;
      usage 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  ( !only,
    !json,
    !seed,
    !compare_file,
    !compare_warn,
    !quick )

(* Assertions the metric passes make about this run (chain-vs-dense
   verdict equality, batched-vs-unbatched verdict equality, the
   flat-memory ceiling): collected here, reported and turned into a
   non-zero exit at the end so one failure doesn't hide the rest. *)
let hard_failures : string list ref = ref []

let fail_check fmt = Fmt.kstr (fun s -> hard_failures := !hard_failures @ [ s ]) fmt

(* Every input generator below derives its seed from the CLI's
   [--seed] through this offset; the default 1 reproduces the
   historical hardcoded seeds, so recorded trajectories stay
   comparable run over run. *)
let soff = cli_seed - 1

(* --- fixed inputs, built once --- *)

let hard_multi n seed =
  Mmc_workload.Histories.random_multi ~seed ~n_procs:3 ~n_objects:3 ~n_mops:n
    ~max_reads:2 ~max_writes:2 ()

let consistent n seed =
  Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:4 ~n_mops:n
    ~max_len:3 ~read_ratio:0.5 ()

let registers n seed =
  Mmc_workload.Histories.random_register ~seed ~n_procs:4 ~n_objects:2
    ~n_mops:n ~write_ratio:0.5 ()

(* The synchronization chain over a history's updates, in id order. *)
let ww_links h =
  let updates =
    History.real_mops h
    |> List.filter Mop.is_update
    |> List.map (fun (m : Mop.t) -> m.Mop.id)
  in
  let rec link acc = function
    | a :: (b :: _ as rest) -> link ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  link [] updates

let ww_base h =
  let base = History.base_relation h History.Msc in
  Relation.add_edges base (ww_links h);
  base

let t1_inputs =
  List.map (fun n -> (n, hard_multi n ((n * 7) + soff))) [ 6; 10; 14 ]

let t1_constrained =
  List.map
    (fun n ->
      let h = consistent n ((n * 7) + soff) in
      (n, h, ww_base h))
    [ 6; 10; 14 ]

let t2_single =
  List.map (fun n -> (n, registers n ((n * 3) + soff))) [ 8; 16; 24 ]

let bench_t1 =
  Test.make_grouped ~name:"T1"
    (List.map
       (fun (n, h) ->
         Test.make
           ~name:(Fmt.str "exhaustive-mlin-%d" n)
           (Staged.stage (fun () ->
                ignore (Admissible.check ~max_states:3_000_000 h History.Mlin))))
       t1_inputs
    @ List.map
        (fun (n, h, base) ->
          Test.make
            ~name:(Fmt.str "theorem7-ww-%d" n)
            (Staged.stage (fun () ->
                 ignore (Check_constrained.check_relation h base Constraints.WW))))
        t1_constrained)

let bench_t2 =
  Test.make_grouped ~name:"T2"
    (List.map
       (fun (n, h) ->
         Test.make
           ~name:(Fmt.str "single-object-%d" n)
           (Staged.stage (fun () -> ignore (Check_single.check h))))
       t2_single
    @ List.map
        (fun (n, h) ->
          Test.make
            ~name:(Fmt.str "multi-object-%d" n)
            (Staged.stage (fun () ->
                 ignore (Admissible.check ~max_states:3_000_000 h History.Mlin))))
        t1_inputs)

(* Large-history kernels behind Theorem 7: the word-packed-relation
   perf-trajectory set.  Only here, not in runtest — a full n = 400
   check is milliseconds, not test material.  [--quick] drops the top
   size; the metric passes below target the largest size present, so
   the smoke run exercises the same code on a smaller input. *)
let core_sizes = if cli_quick then [ 50; 100; 200 ] else [ 50; 100; 200; 400 ]

let core_inputs =
  List.map
    (fun n ->
      let h = consistent n ((n * 7) + soff) in
      let links = ww_links h in
      let base = History.base_relation h History.Msc in
      Relation.add_edges base links;
      (n, h, links, base, Relation.transitive_closure base))
    core_sizes

let core_top =
  let n, h, links, base, _ =
    List.nth core_inputs (List.length core_inputs - 1)
  in
  (n, h, links, base)

(* The chain-decomposed check over the same history and edges as
   [theorem7-ww-N]'s dense base relation. *)
let chain_check h links =
  Check_constrained.check_chain h ~flavour:History.Msc ~extra:links
    Constraints.WW

let bench_core =
  Test.make_grouped ~name:"core"
    (List.concat_map
       (fun (n, h, links, base, closed) ->
         [
           Test.make
             ~name:(Fmt.str "theorem7-ww-%d" n)
             (Staged.stage (fun () ->
                  ignore (Check_constrained.check_relation h base Constraints.WW)));
           Test.make
             ~name:(Fmt.str "theorem7-chain-%d" n)
             (Staged.stage (fun () -> ignore (chain_check h links)));
           Test.make
             ~name:(Fmt.str "legality-%d" n)
             (Staged.stage (fun () -> ignore (Legality.is_legal h closed)));
           Test.make
             ~name:(Fmt.str "closure-%d" n)
             (Staged.stage (fun () -> ignore (Relation.transitive_closure base)));
         ])
       core_inputs)

(* Chain-vs-dense metrics of the core group, recorded with --json. *)
let core_metrics () =
  let n, h, links, base = core_top in
  (* The chain check must reach the dense verdict on every core input,
     and beat it >= 10x at n = 400 (the full-size run only: the quick
     sizes are too small for the asymptotics to show). *)
  let kind_of = function
    | Check_constrained.Admissible _ -> "admissible"
    | Check_constrained.Not_legal _ -> "not legal"
    | Check_constrained.Constraint_violated -> "constraint violated"
    | Check_constrained.Cyclic -> "cyclic"
    | Check_constrained.Extended_cyclic -> "extended cyclic"
  in
  List.iter
    (fun (n, h, links, base, _) ->
      let dense = kind_of (Check_constrained.check_relation h base Constraints.WW)
      and chain = kind_of (chain_check h links) in
      if dense <> chain then
        fail_check "theorem7-chain-%d: verdict %s, dense theorem7-ww says %s" n
          chain dense)
    core_inputs;
  let best_ms reps f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (f ())
      done;
      best :=
        Float.min !best
          ((Unix.gettimeofday () -. t0) *. 1_000. /. float_of_int reps)
    done;
    !best
  in
  let dense_ms =
    best_ms 5 (fun () -> Check_constrained.check_relation h base Constraints.WW)
  in
  let chain_ms = best_ms 50 (fun () -> chain_check h links) in
  let speedup = dense_ms /. Float.max 1e-6 chain_ms in
  if (not cli_quick) && speedup < 10. then
    fail_check
      "theorem7-chain-%d: %.2fx faster than theorem7-ww-%d (%.3f vs %.3f ms); \
       the >= 10x target does not hold"
      n speedup n chain_ms dense_ms;
  [ (Fmt.str "metrics/core/theorem7-chain-%d/speedup" n, speedup) ]

let bench_t7 =
  Test.make ~name:"T7-corpus"
    (Staged.stage (fun () -> ignore (Mmc_experiments.Exp_checker.t7 ~n_histories:10 ())))

let run_store kind =
  let spec = { Mmc_workload.Spec.default with n_objects = 8 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 20;
      kind;
    }
  in
  fun () ->
    ignore
      (Mmc_store.Runner.run ~seed:(11 + soff) cfg
         ~workload:(Mmc_workload.Generator.mixed spec))

let bench_protocol =
  Test.make_grouped ~name:"protocol"
    [
      Test.make ~name:"P1-msc-run" (Staged.stage (run_store Mmc_store.Store.Msc));
      Test.make ~name:"P2-mlin-run" (Staged.stage (run_store Mmc_store.Store.Mlin));
      Test.make ~name:"P3-central-run"
        (Staged.stage (run_store Mmc_store.Store.Central));
      Test.make ~name:"W1-causal-run"
        (Staged.stage (run_store Mmc_store.Store.Causal));
      Test.make ~name:"L1-lock-run" (Staged.stage (run_store Mmc_store.Store.Lock));
    ]

let bench_broadcast =
  Test.make_grouped ~name:"P4"
    (List.map
       (fun (name, impl) ->
         Test.make ~name
           (Staged.stage (fun () ->
                ignore
                  (Mmc_experiments.Exp_broadcast.measure ~impl ~n:4 ~k:10
                     ~latency:(Mmc_sim.Latency.Uniform (5, 15))
                     ~seed:(3 + soff) ()))))
       [
         ("sequencer", Mmc_broadcast.Abcast.Sequencer_impl);
         ("lamport", Mmc_broadcast.Abcast.Lamport_impl);
       ])

let bench_objects =
  Test.make ~name:"P5-dcas-loop"
    (Staged.stage (fun () ->
         ignore
           (Mmc_experiments.Exp_objects.run_dcas ~kind:Mmc_store.Store.Mlin
              ~n_procs:4 ~attempts:6 ~seed:(5 + soff))))

let bench_figures =
  Test.make_grouped ~name:"figures"
    [
      Test.make ~name:"F1-figure1-mlin"
        (Staged.stage (fun () ->
             let h, _ = Mmc_workload.Figures.figure1 () in
             ignore (Admissible.check h History.Mlin)));
      Test.make ~name:"F2-figure2-theorem7"
        (Staged.stage (fun () ->
             let h, _, ww = Mmc_workload.Figures.figure2 () in
             let base = History.base_relation h History.Msc in
             Relation.add_edges base ww;
             ignore (Check_constrained.check_relation h base Constraints.WW)));
    ]

(* --- sharded store: runs and per-shard verification --- *)

let shard_counts = [ 1; 2; 4; 8 ]

let shard_spec =
  { Mmc_workload.Spec.default with n_objects = 32; read_ratio = 0.5 }

let shard_cfg ?(batch = Mmc_broadcast.Batch.unbatched) ~ops () =
  {
    Mmc_store.Runner.default_config with
    n_procs = 6;
    n_objects = 32;
    ops_per_proc = ops;
    batch;
  }

let run_sharded ?batch ?(spec = shard_spec) ~n_shards ~ops () =
  let placement = Mmc_shard.Placement.hash ~n_shards ~n_objects:32 in
  Mmc_shard.Shard_runner.run ~seed:(11 + soff) ~placement
    (shard_cfg ?batch ~ops ())
    ~workload:(Mmc_workload.Generator.sharded placement spec)

let shard_ops = if cli_quick then 40 else 100

(* A larger single-shard-workload trace per shard count, built once:
   the verification input.  Same total size at every S, so the
   per-shard closure cost (~(n/S)^3 each) is the only variable. *)
let shard_inputs =
  List.map (fun s -> (s, run_sharded ~n_shards:s ~ops:shard_ops ())) shard_counts

let bench_shard =
  Test.make_grouped ~name:"shard"
    (List.map
       (fun s ->
         Test.make
           ~name:(Fmt.str "run-S%d" s)
           (Staged.stage (fun () -> ignore (run_sharded ~n_shards:s ~ops:20 ()))))
       shard_counts
    @ List.map
        (fun (s, res) ->
          Test.make
            ~name:(Fmt.str "verify-S%d" s)
            (Staged.stage (fun () ->
                 ignore
                   (Mmc_shard.Check_sharded.check_shards
                      res.Mmc_shard.Shard_runner.recorders ~flavour:History.Msc))))
        shard_inputs)

(* One-shot simulated-time and throughput metrics per shard count,
   recorded next to the ns/run estimates when --json is given: the
   machine-readable form of the tentpole claim (verification throughput
   on a single-shard workload grows with S while messages/op and
   latency stay honest about the partitioning price). *)
let shard_metrics () =
  (* The batched counterpart of every unbatched run: same seed, same
     workload, size-8 batches flushed every 120 units.  Batching
     reframes the wire traffic, so msgs-per-op drops; the per-shard
     Theorem-7 verdicts must not move at all and are asserted equal to
     the unbatched run's.  The stitched (cross-shard) verdict is only
     recorded: the two runs are different executions, and composition
     anomalies are a legitimate property of a run, not of the checker
     — batching widens the window in which a client can see one shard
     fresh and another stale, so anomalies get likelier, which is
     exactly the kind of honesty this metric set exists for. *)
  let b8 = Mmc_broadcast.Batch.make ~size:8 ~flush_every:120 () in
  let verdicts r =
    let c = Mmc_shard.Shard_runner.check ~oracle:false r ~flavour:History.Msc in
    ( Mmc_shard.Check_sharded.all_shards_admissible c,
      Mmc_shard.Check_sharded.admissible c )
  in
  let msgs_per_op r =
    float_of_int r.Mmc_shard.Shard_runner.messages
    /. float_of_int (max 1 r.Mmc_shard.Shard_runner.completed)
  in
  let check_pair ~what s res res_b =
    let v_plain = verdicts res and v_b = verdicts res_b in
    if fst v_plain <> fst v_b then
      fail_check
        "shard S%d (%s): batched (size 8) per-shard Theorem-7 verdicts \
         differ from unbatched (all-shards admissible: %b vs %b)"
        s what (fst v_plain) (fst v_b);
    ( (if fst v_plain = fst v_b then 1. else 0.),
      if snd v_plain = snd v_b then 1. else 0. )
  in
  (* Uniform object selection caps what batching can do at high shard
     counts: 6 closed-loop clients leave ~1 update in flight per shard
     at S8, so batches rarely exceed 2.  A Zipf-skewed workload
     (hot objects, as real traffic is) concentrates updates and lets
     the batch actually fill — the skewed pair below is the
     apples-to-apples demonstration, both runs on the same workload. *)
  let skewed = { shard_spec with Mmc_workload.Spec.skew = 2.5 } in
  let s8_skew_metrics =
    let res_u = run_sharded ~spec:skewed ~n_shards:8 ~ops:shard_ops () in
    let res_b = run_sharded ~batch:b8 ~spec:skewed ~n_shards:8 ~ops:shard_ops () in
    let per_shard_eq, stitched_eq = check_pair ~what:"skew" 8 res_u res_b in
    let m_b = msgs_per_op res_b in
    if (not cli_quick) && m_b >= 2. then
      fail_check
        "shard S8 (skew 1.5): batched msgs-per-op %.2f, target < 2.0" m_b;
    [
      ("metrics/shard/S8/msgs-per-op-skew", msgs_per_op res_u);
      ("metrics/shard/S8/msgs-per-op-b8-skew", m_b);
      ("metrics/shard/S8/verdict-equal-b8-skew", per_shard_eq);
      ("metrics/shard/S8/stitched-equal-b8-skew", stitched_eq);
    ]
  in
  List.concat_map
    (fun (s, res) ->
      let completed = res.Mmc_shard.Shard_runner.completed in
      let verify_runs = if cli_quick then 5 else 20 in
      let t0 = Sys.time () in
      for _ = 1 to verify_runs do
        ignore
          (Mmc_shard.Check_sharded.check_shards
             res.Mmc_shard.Shard_runner.recorders ~flavour:History.Msc)
      done;
      let dt = (Sys.time () -. t0) /. float_of_int verify_runs in
      let u = res.Mmc_shard.Shard_runner.update_latency in
      let res_b8 = run_sharded ~batch:b8 ~n_shards:s ~ops:shard_ops () in
      let per_shard_eq, stitched_eq = check_pair ~what:"uniform" s res res_b8 in
      let m_plain = msgs_per_op res and m_b8 = msgs_per_op res_b8 in
      (* Batching must pay on the wire at every shard count, even where
         the closed loop keeps batches small. *)
      if (not cli_quick) && m_b8 > 0.85 *. m_plain then
        fail_check
          "shard S%d: batched msgs-per-op %.2f saves less than 15%% over \
           unbatched %.2f"
          s m_b8 m_plain;
      [
        (Fmt.str "metrics/shard/S%d/msgs-per-op" s, m_plain);
        (Fmt.str "metrics/shard/S%d/msgs-per-op-b8" s, m_b8);
        (Fmt.str "metrics/shard/S%d/verdict-equal-b8" s, per_shard_eq);
        (Fmt.str "metrics/shard/S%d/stitched-equal-b8" s, stitched_eq);
        (Fmt.str "metrics/shard/S%d/update-p50" s, float_of_int u.Mmc_sim.Stats.p50);
        (Fmt.str "metrics/shard/S%d/update-p95" s, float_of_int u.Mmc_sim.Stats.p95);
        (Fmt.str "metrics/shard/S%d/update-p99" s, float_of_int u.Mmc_sim.Stats.p99);
        ( Fmt.str "metrics/shard/S%d/verified-ops-per-sec" s,
          float_of_int completed /. dt );
      ])
    shard_inputs
  @ s8_skew_metrics

(* --- coordination-avoidance fast path: the `fastpath` group --- *)

(* The seg store against msc on the sharded counter workload, sweeping
   the commuting-op ratio 0 -> 1 at S8.  Built once per (ratio, kind);
   the bench kernels re-run small instances, the metrics read the big
   ones. *)

let fastpath_ratios = [ 0.0; 0.5; 0.9; 1.0 ]

let run_fastpath ~kind ~commute_ratio ~ops () =
  let placement = Mmc_shard.Placement.hash ~n_shards:8 ~n_objects:32 in
  let cfg = { (shard_cfg ~ops ()) with Mmc_store.Runner.kind } in
  Mmc_shard.Shard_runner.run ~seed:(12 + soff) ~placement cfg
    ~workload:
      (Mmc_workload.Generator.sharded_counter_commute ~commute_ratio ~n_procs:6
         placement shard_spec)

let fastpath_inputs =
  List.map
    (fun r ->
      ( r,
        run_fastpath ~kind:Mmc_store.Store.Seg ~commute_ratio:r ~ops:shard_ops
          (),
        run_fastpath ~kind:Mmc_store.Store.Msc ~commute_ratio:r ~ops:shard_ops
          () ))
    fastpath_ratios

let bench_fastpath =
  Test.make_grouped ~name:"fastpath"
    (List.concat_map
       (fun r ->
         [
           Test.make
             ~name:(Fmt.str "run-seg-r%.1f" r)
             (Staged.stage (fun () ->
                  ignore
                    (run_fastpath ~kind:Mmc_store.Store.Seg ~commute_ratio:r
                       ~ops:20 ())));
           Test.make
             ~name:(Fmt.str "run-msc-r%.1f" r)
             (Staged.stage (fun () ->
                  ignore
                    (run_fastpath ~kind:Mmc_store.Store.Msc ~commute_ratio:r
                       ~ops:20 ())));
         ])
       fastpath_ratios
    @ List.map
        (fun (r, seg, _) ->
          Test.make
            ~name:(Fmt.str "verify-seg-r%.1f" r)
            (Staged.stage (fun () ->
                 ignore
                   (Mmc_shard.Check_sharded.check_shards
                      seg.Mmc_shard.Shard_runner.recorders
                      ~flavour:History.Msc))))
        fastpath_inputs)

(* Simulated-time metrics of the sweep, with the tentpole assertions at
   the 90%-commuting point.  Two throughput lenses, both recorded:

   - [speedup]: completed ops per unit of virtual time, seg over msc.
     The closed loop caps this well below the wire savings — each
     client is latency-bound, an msc update costs ~2 latencies and a
     seg escalation ~4 (flush + barrier + broadcast), so even at 90%
     commuting the ratio converges to the per-client latency quotient
     (~2-5x), not to the message quotient.  Asserted > 1.5x, i.e. the
     fast path must win end-to-end, not only on the wire.
   - [coordination-reduction]: sequencer rounds per completed op, msc
     over seg.  This is the coordination-avoidance claim itself —
     every avoided round is sequencer capacity another client could
     use, which is what ">= 10x verified-ops/sec" means once the
     sequencer (not the closed loop) is the bottleneck.  Asserted
     >= 10x at ratio 0.9, alongside msgs-per-op < 0.5.

   Theorem-7 verdict equality (seg vs msc, per-shard) is asserted at
   every ratio; the stitched verdict is recorded (composition
   anomalies are a property of an execution, not of the checker). *)
let fastpath_metrics () =
  let verdicts res =
    let c =
      Mmc_shard.Shard_runner.check ~oracle:false res ~flavour:History.Msc
    in
    ( Mmc_shard.Check_sharded.all_shards_admissible c,
      Mmc_shard.Check_sharded.admissible c )
  in
  let per_op res n =
    float_of_int n /. float_of_int (max 1 res.Mmc_shard.Shard_runner.completed)
  in
  let throughput res =
    float_of_int res.Mmc_shard.Shard_runner.completed
    /. float_of_int (max 1 res.Mmc_shard.Shard_runner.duration)
  in
  (* msc coordinates once per update: one sequencer round per record
     with a broadcast position.  seg coordinates only on escalation. *)
  let msc_rounds res =
    Array.fold_left
      (fun acc rec_ ->
        List.fold_left
          (fun acc (r : Mmc_store.Recorder.record) ->
            if r.Mmc_store.Recorder.sync <> None then acc + 1 else acc)
          acc
          (Mmc_store.Recorder.records rec_))
      0 res.Mmc_shard.Shard_runner.recorders
  in
  let seg_rounds res =
    Array.fold_left
      (fun acc h ->
        match h with
        | Some (h : Mmc_store.Seg_store.handle) ->
          acc + h.Mmc_store.Seg_store.stats.Mmc_store.Seg_store.escalated
        | None -> acc)
      0 res.Mmc_shard.Shard_runner.fastpath
  in
  List.concat_map
    (fun (r, seg, msc) ->
      let seg_ok, seg_stitched = verdicts seg in
      let msc_ok, msc_stitched = verdicts msc in
      if seg_ok <> msc_ok then
        fail_check
          "fastpath r=%.1f: per-shard Theorem-7 verdicts differ (seg %b vs \
           msc %b)"
          r seg_ok msc_ok;
      if not seg_ok then
        fail_check "fastpath r=%.1f: seg per-shard Theorem-7 verdict is FAIL" r;
      let m_seg = per_op seg seg.Mmc_shard.Shard_runner.messages in
      let m_msc = per_op msc msc.Mmc_shard.Shard_runner.messages in
      let esc = per_op seg (seg_rounds seg) in
      (* At ratio 1.0 seg never coordinates; report "N rounds down to
         zero" as Nx rather than a division by epsilon. *)
      let coord =
        if seg_rounds seg = 0 then float_of_int (msc_rounds msc)
        else per_op msc (msc_rounds msc) /. per_op seg (seg_rounds seg)
      in
      let speedup = throughput seg /. Float.max 1e-9 (throughput msc) in
      if (not cli_quick) && r = 0.9 then begin
        if coord < 10. then
          fail_check
            "fastpath r=0.9: coordination reduction %.1fx (sequencer rounds \
             per op, msc/seg), target >= 10x"
            coord;
        if m_seg >= 0.5 then
          fail_check "fastpath r=0.9: seg msgs-per-op %.3f, target < 0.5" m_seg;
        if speedup < 1.5 then
          fail_check
            "fastpath r=0.9: closed-loop virtual-time speedup %.2fx, target \
             > 1.5x"
            speedup
      end;
      [
        (Fmt.str "metrics/fastpath/r%.1f/throughput-seg" r, throughput seg);
        (Fmt.str "metrics/fastpath/r%.1f/throughput-msc" r, throughput msc);
        (Fmt.str "metrics/fastpath/r%.1f/speedup" r, speedup);
        (Fmt.str "metrics/fastpath/r%.1f/msgs-per-op-seg" r, m_seg);
        (Fmt.str "metrics/fastpath/r%.1f/msgs-per-op-msc" r, m_msc);
        (Fmt.str "metrics/fastpath/r%.1f/escalations-per-op" r, esc);
        (Fmt.str "metrics/fastpath/r%.1f/coordination-reduction" r, coord);
        ( Fmt.str "metrics/fastpath/r%.1f/verdict-equal" r,
          if seg_ok = msc_ok then 1. else 0. );
        ( Fmt.str "metrics/fastpath/r%.1f/stitched-equal" r,
          if seg_stitched = msc_stitched then 1. else 0. );
      ])
    fastpath_inputs

(* --- streaming verification: the `stream` group --- *)

(* One closed-loop msc trace, built once; the kernels compare the
   windowed checker (feed + epoch checks + retirement, at two window
   sizes) against the full-trace chain-decomposed check on the same
   trace — the streaming overhead is the price of O(window) residency. *)

let stream_spec =
  { Mmc_workload.Spec.default with n_objects = 16; read_ratio = 0.5 }

let stream_ops = if cli_quick then 50 else 150

let stream_input =
  Mmc_store.Runner.run
    ~seed:(13 + soff)
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 16;
      ops_per_proc = stream_ops;
    }
    ~workload:(Mmc_workload.Generator.mixed stream_spec)

let windowed_check window (res : Mmc_store.Runner.result) =
  let wc =
    Mmc_stream.Window_check.create ~window ~flavour:History.Msc
      ~n_objects:(History.n_objects res.Mmc_store.Runner.history)
      ()
  in
  Mmc_stream.Window_check.feed_history wc res.Mmc_store.Runner.history
    ~sync_order:res.Mmc_store.Runner.sync_order;
  Mmc_stream.Window_check.finish wc

let bench_stream =
  let n = stream_input.Mmc_store.Runner.completed in
  Test.make_grouped ~name:"stream"
    [
      Test.make
        ~name:(Fmt.str "windowed-%d-w128" n)
        (Staged.stage (fun () -> ignore (windowed_check 128 stream_input)));
      Test.make
        ~name:(Fmt.str "windowed-%d-w512" n)
        (Staged.stage (fun () -> ignore (windowed_check 512 stream_input)));
      Test.make
        ~name:(Fmt.str "full-%d" n)
        (Staged.stage (fun () ->
             ignore
               (Mmc_store.Runner.check_trace stream_input
                  ~flavour:History.Msc)));
    ]

(* One-shot soak metrics recorded next to the ns/run estimates: the
   flat-memory claim as numbers (max resident checker words for a
   window-256 checker must be O(window), asserted under a generous
   ceiling), the verdict (asserted PASS — a failing soak is a checker
   bug, not a slow run), and the seeded-corruption counterpart
   (asserted FAIL — a passing corrupted soak is a worse one). *)
let stream_metrics () =
  let soak_ops = if cli_quick then 2_000 else 20_000 in
  let cfg =
    {
      Mmc_stream.Soak.default_config with
      runner =
        {
          Mmc_store.Runner.default_config with
          n_procs = 4;
          n_objects = 16;
        };
      rate = 3;
      max_ops = soak_ops;
      window = 256;
    }
  in
  let r =
    Mmc_stream.Soak.run ~seed:(11 + soff)
      ~workload:(Mmc_workload.Generator.mixed stream_spec)
      cfg
  in
  let m = r.Mmc_stream.Soak.wc in
  let pass =
    match r.Mmc_stream.Soak.verdict with
    | Mmc_stream.Window_check.Pass -> true
    | _ -> false
  in
  if not pass then
    fail_check "stream soak (%d ops): windowed verdict is not PASS" soak_ops;
  let resident = m.Mmc_stream.Window_check.max_resident_words in
  if resident > 40_000 then
    fail_check
      "stream soak: %d resident checker words for window 256 (flat-memory \
       claim: O(window), ceiling 40000)"
      resident;
  let corrupt_res =
    Mmc_stream.Soak.run ~seed:(7 + soff)
      ~workload:(Mmc_workload.Generator.mixed stream_spec)
      {
        cfg with
        Mmc_stream.Soak.max_ops = 4_000;
        corrupt = Some 1_500;
        runner = { cfg.Mmc_stream.Soak.runner with kind = Mmc_store.Store.Mlin };
      }
  in
  let corrupt_fail =
    match corrupt_res.Mmc_stream.Soak.verdict with
    | Mmc_stream.Window_check.Fail _ -> true
    | _ -> false
  in
  if not corrupt_fail then
    fail_check
      "stream soak: seeded stale-read corruption did not FAIL the windowed \
       checker";
  [
    ("metrics/stream/msc/ops", float_of_int r.Mmc_stream.Soak.completed);
    ( "metrics/stream/msc/throughput-per-kt",
      1000.
      *. float_of_int r.Mmc_stream.Soak.completed
      /. float_of_int (max 1 r.Mmc_stream.Soak.duration) );
    ( "metrics/stream/msc/latency-p99",
      r.Mmc_stream.Soak.latency.Mmc_sim.Stats.q99 );
    ("metrics/stream/msc/resident-words", float_of_int resident);
    ( "metrics/stream/msc/recycled-words",
      float_of_int m.Mmc_stream.Window_check.recycled_words );
    ("metrics/stream/msc/retired", float_of_int m.Mmc_stream.Window_check.retired);
    ("metrics/stream/msc/max-live", float_of_int m.Mmc_stream.Window_check.max_live);
    ("metrics/stream/msc/verdict-pass", if pass then 1. else 0.);
    ("metrics/stream/mlin/corrupt-fail", if corrupt_fail then 1. else 0.);
  ]

(* --- crash recovery: the `recovery` group --- *)

(* Full recoverable-store runs: crash-free (the WAL/checkpoint
   overhead alone), a double wipe-crash schedule under each broadcast
   (the restart + catch-up + failover price), the same schedule with
   tight checkpoints (replay shifted onto snapshots), with the
   scrubber disabled (its overhead isolated by difference), and with
   storage corruption layered on — torn writes, bit-rot and a stale
   checkpoint the CRC/scrub/peer-repair machinery must absorb. *)

let recovery_spec = { Mmc_workload.Spec.default with n_objects = 8 }

let recovery_wipes =
  [
    { Mmc_sim.Fault.node = 0; at = 150; back = 600; wipe = true };
    { Mmc_sim.Fault.node = 2; at = 900; back = 1300; wipe = true };
  ]

let recovery_plan crashes =
  { Mmc_sim.Fault.none with Mmc_sim.Fault.drop = 0.1; crashes }

let recovery_storage_plan =
  {
    (recovery_plan recovery_wipes) with
    Mmc_sim.Fault.tears = [ { Mmc_sim.Fault.node = 0; at = 150 } ];
    rots =
      [ { Mmc_sim.Fault.node = 1; at = 300 }; { Mmc_sim.Fault.node = 3; at = 500 } ];
    stales = [ { Mmc_sim.Fault.node = 2; at = 400 } ];
  }

let run_recovery ~impl ~plan ~checkpoint_every ~scrub_every () =
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 12;
      kind = Mmc_store.Store.Rmsc;
      abcast_impl = impl;
      fault = plan;
      recovery =
        { Mmc_recovery.Rlog.default_policy with checkpoint_every; scrub_every };
    }
  in
  Mmc_store.Runner.run ~seed:(17 + soff) cfg
    ~workload:(Mmc_workload.Generator.mixed recovery_spec)

let default_scrub = Mmc_recovery.Rlog.default_policy.Mmc_recovery.Rlog.scrub_every

let recovery_variants =
  [
    ("crashfree-seq", Mmc_broadcast.Abcast.Sequencer_impl, recovery_plan [], 16,
     default_scrub);
    ("wipe2-seq", Mmc_broadcast.Abcast.Sequencer_impl,
     recovery_plan recovery_wipes, 16, default_scrub);
    ("wipe2-lamport", Mmc_broadcast.Abcast.Lamport_impl,
     recovery_plan recovery_wipes, 16, default_scrub);
    ("wipe2-seq-ckpt4", Mmc_broadcast.Abcast.Sequencer_impl,
     recovery_plan recovery_wipes, 4, default_scrub);
    ("wipe2-seq-noscrub", Mmc_broadcast.Abcast.Sequencer_impl,
     recovery_plan recovery_wipes, 16, 0);
    ("wipe2-seq-storage", Mmc_broadcast.Abcast.Sequencer_impl,
     recovery_storage_plan, 16, default_scrub);
  ]

let bench_recovery =
  Test.make_grouped ~name:"recovery"
    (List.map
       (fun (name, impl, plan, checkpoint_every, scrub_every) ->
         Test.make ~name:(Fmt.str "run-%s" name)
           (Staged.stage (fun () ->
                ignore (run_recovery ~impl ~plan ~checkpoint_every ~scrub_every ()))))
       recovery_variants)

(* Wall-ms per variant (run + Theorem-7 verification of the stitched
   cross-crash trace), plus the replay/catch-up volume of one run —
   the machine-readable recovery bill, recorded with --json.  The
   storage-corruption variant must actually repair something
   (repaired = 0 would mean the faults or the repair path went dead),
   and the scrubber's cost shows up as the wall-clock delta between
   the scrub-on and scrub-off wipe runs. *)
let recovery_metrics () =
  let wall_ms repeats f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1_000. /. float_of_int repeats
  in
  let rows =
    List.concat_map
      (fun (name, impl, plan, checkpoint_every, scrub_every) ->
        let run () = run_recovery ~impl ~plan ~checkpoint_every ~scrub_every () in
        let ms_run = wall_ms (if cli_quick then 3 else 10)(fun () -> ignore (run ())) in
        let res = run () in
        let ms_verify =
          wall_ms (if cli_quick then 3 else 10)(fun () ->
              ignore
                (Mmc_store.Runner.check_trace res ~flavour:History.Msc))
        in
        let log_sum f =
          match res.Mmc_store.Runner.recovery with
          | None -> 0
          | Some h ->
            Array.fold_left (fun t s -> t + f s) 0 (h.Mmc_store.Rstore.log_stats ())
        in
        let replayed = log_sum (fun s -> s.Mmc_recovery.Rlog.replayed) in
        let pulls =
          match res.Mmc_store.Runner.recovery with
          | None -> 0
          | Some h -> h.Mmc_store.Rstore.pulls ()
        in
        let base =
          [
            (Fmt.str "metrics/recovery/%s/ms-run" name, ms_run);
            (Fmt.str "metrics/recovery/%s/ms-verify" name, ms_verify);
            (Fmt.str "metrics/recovery/%s/replayed" name, float_of_int replayed);
            (Fmt.str "metrics/recovery/%s/pulls" name, float_of_int pulls);
          ]
        in
        if name <> "wipe2-seq-storage" then base
        else begin
          let repaired = log_sum (fun s -> s.Mmc_recovery.Rlog.repaired) in
          let corrupt = log_sum (fun s -> s.Mmc_recovery.Rlog.corrupt) in
          if repaired = 0 then
            fail_check
              "recovery/wipe2-seq-storage: 0 records repaired — the storage \
               faults or the repair path went dead";
          base
          @ [
              (Fmt.str "metrics/recovery/%s/repaired" name,
               float_of_int repaired);
              (Fmt.str "metrics/recovery/%s/corrupt" name, float_of_int corrupt);
            ]
        end)
      recovery_variants
  in
  let ms name = try List.assoc (Fmt.str "metrics/recovery/%s/ms-run" name) rows with Not_found -> 0. in
  rows
  @ [
      ("metrics/recovery/scrub-overhead-ms", ms "wipe2-seq" -. ms "wipe2-seq-noscrub");
      ("metrics/recovery/corruption-overhead-ms",
       ms "wipe2-seq-storage" -. ms "wipe2-seq");
    ]

(* --- stable vs optimistic delivery: the `chaos` group --- *)

(* The price of quorum-stable delivery: the same recoverable-store run
   under both delivery rules, over a lossy-but-crashfree plan and over
   a sequencer-wipe plan.  Optimistic runs may abort when the §12
   anomaly actually bites (the recorder refuses the second writer of a
   version); the guard keeps the benchmark honest about measuring the
   runs that finish. *)

let chaos_wipe = [ { Mmc_sim.Fault.node = 0; at = 150; back = 600; wipe = true } ]

let run_chaos ~delivery ~crashes () =
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 12;
      kind = Mmc_store.Store.Rmsc;
      fault = { Mmc_sim.Fault.none with Mmc_sim.Fault.drop = 0.1; crashes };
      delivery;
    }
  in
  Mmc_store.Runner.run ~seed:(23 + soff) cfg
    ~workload:(Mmc_workload.Generator.mixed recovery_spec)

let chaos_variants =
  [
    ("stable-lossy", Mmc_store.Rstore.Stable, []);
    ("optimistic-lossy", Mmc_store.Rstore.Optimistic, []);
    ("stable-wipe", Mmc_store.Rstore.Stable, chaos_wipe);
    ("optimistic-wipe", Mmc_store.Rstore.Optimistic, chaos_wipe);
  ]

let bench_chaos =
  Test.make_grouped ~name:"chaos"
    (List.map
       (fun (name, delivery, crashes) ->
         Test.make ~name:(Fmt.str "run-%s" name)
           (Staged.stage (fun () ->
                try ignore (run_chaos ~delivery ~crashes ()) with _ -> ())))
       chaos_variants)

(* Wall-ms and virtual-time per variant, plus the stability-ack volume
   of one run — what a quorum-stable delivery gate costs over
   apply-on-arrival, recorded with --json. *)
let chaos_metrics () =
  let wall_ms repeats f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1_000. /. float_of_int repeats
  in
  List.concat_map
    (fun (name, delivery, crashes) ->
      let run () = run_chaos ~delivery ~crashes () in
      let ms_run = wall_ms (if cli_quick then 3 else 10)(fun () -> try ignore (run ()) with _ -> ()) in
      match run () with
      | exception _ ->
        [
          (Fmt.str "metrics/chaos/%s/ms-run" name, ms_run);
          (Fmt.str "metrics/chaos/%s/aborted" name, 1.);
        ]
      | res ->
        let acks =
          match res.Mmc_store.Runner.recovery with
          | None -> 0
          | Some h -> h.Mmc_store.Rstore.stability_acks ()
        in
        [
          (Fmt.str "metrics/chaos/%s/ms-run" name, ms_run);
          ( Fmt.str "metrics/chaos/%s/virtual-time" name,
            float_of_int res.Mmc_store.Runner.duration );
          (Fmt.str "metrics/chaos/%s/stability-acks" name, float_of_int acks);
        ])
    chaos_variants

(* --- simulator kernels: the `sim` group --- *)

(* Engine schedule+run with [depth] events queued throughout: each of
   [depth] chains reschedules itself until [sim_events] have run, its
   delays cycling through a fixed table of 1..700 ticks (the span of
   message latencies and retransmit backoffs).  [rmsc-lossy] keeps
   about 230 events queued, [msc-mixed] about 6. *)
let sim_events = if cli_quick then 2_000 else 20_000

let sim_delays =
  let rng = Mmc_sim.Rng.create (29 + soff) in
  Array.init 1024 (fun _ -> Mmc_sim.Rng.int_range rng ~lo:1 ~hi:700)

let run_engine ~depth () =
  let e = Mmc_sim.Engine.create () in
  let left = ref sim_events in
  let rec chain () =
    if !left > 0 then begin
      decr left;
      Mmc_sim.Engine.schedule e ~delay:sim_delays.(!left land 1023) chain
    end
  in
  for _ = 1 to depth do
    Mmc_sim.Engine.schedule e ~delay:0 chain
  done;
  Mmc_sim.Engine.run e

(* A WAL of 80 records of about three sectors each.  [first] reads
   every frame, as the first pass over fresh appends does: flipping a
   byte of each chunk twice leaves the bytes alone but moves every
   chunk's mutation stamp.  [repeat] is the pass over an unchanged
   log. *)
let sim_wal =
  let w = Mmc_recovery.Wal.create () in
  for pos = 0 to 79 do
    Mmc_recovery.Wal.append w
      { Mmc_recovery.Wal.pos; origin = pos mod 4; payload = Some (String.make 90 'x') }
  done;
  ignore (Mmc_recovery.Wal.scrub w);
  w

let scrub_first () =
  let dev = Mmc_recovery.Wal.dev sim_wal in
  let cs = Mmc_sim.Blockdev.chunk_sectors in
  for c = 0 to (Mmc_sim.Blockdev.high dev - 1) / cs do
    Mmc_sim.Blockdev.rot_at dev ~sector:(c * cs) ~off:31;
    Mmc_sim.Blockdev.rot_at dev ~sector:(c * cs) ~off:31
  done;
  Mmc_recovery.Wal.scrub sim_wal

let bench_sim =
  Test.make_grouped ~name:"sim"
    (List.map
       (fun depth ->
         Test.make ~name:(Fmt.str "engine-depth-%d" depth)
           (Staged.stage (run_engine ~depth)))
       [ 8; 256; 4096 ]
    @ [
        Test.make ~name:"wal-scrub-80-first"
          (Staged.stage (fun () -> ignore (scrub_first ())));
        Test.make ~name:"wal-scrub-80-repeat"
          (Staged.stage (fun () -> ignore (Mmc_recovery.Wal.scrub sim_wal)));
      ])

let groups =
  [
    ("T1", bench_t1);
    ("T2", bench_t2);
    ("T7", bench_t7);
    ("core", bench_core);
    ("protocol", bench_protocol);
    ("P4", bench_broadcast);
    ("P5", bench_objects);
    ("figures", bench_figures);
    ("shard", bench_shard);
    ("fastpath", bench_fastpath);
    ("stream", bench_stream);
    ("recovery", bench_recovery);
    ("chaos", bench_chaos);
    ("sim", bench_sim);
  ]

let selected g = only = [] || List.mem g only

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if cli_quick then
      Benchmark.cfg ~limit:300 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let run tests =
    Benchmark.all cfg instances (Test.make_grouped ~name:"mmc" tests)
  in
  let raw =
    run
      (List.filter_map
         (fun (g, t) -> if selected g then Some t else None)
         groups)
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  Analyze.merge ols instances results

(* Pre-PR reference points for the `core` group, measured with the
   byte-matrix Relation and the two-closure checker this PR replaced
   (same machine, same inputs, wall-clock mean over repeated runs).
   Kept in the JSON so the trajectory file carries before and after. *)
let baselines =
  [
    ("baseline/byte-matrix/theorem7-ww-50", 344_680.);
    ("baseline/byte-matrix/theorem7-ww-100", 1_951_396.);
    ("baseline/byte-matrix/theorem7-ww-200", 13_793_136.);
    ("baseline/byte-matrix/theorem7-ww-400", 148_979_667.);
    ("baseline/byte-matrix/legality-100", 65_924.);
    ("baseline/byte-matrix/closure-100", 445_080.);
    ("baseline/byte-matrix/closure-400", 46_486_143.);
  ]

(* each group's metrics ride along whenever the group ran; computed
   once, shared by --json and --compare *)
let collect_metrics () =
  List.concat_map
    (fun (g, metrics) -> if selected g then metrics () else [])
    [
      ("core", core_metrics);
      ("shard", shard_metrics);
      ("fastpath", fastpath_metrics);
      ("stream", stream_metrics);
      ("recovery", recovery_metrics);
      ("chaos", chaos_metrics);
    ]

let write_json file entries =
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  %S: %.1f%s\n" name est
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "}\n";
  close_out oc;
  Fmt.pr "wrote %s (%d entries, ns/run)@." file (List.length entries)

(* --- trajectory diff (--compare): old-vs-new over a recorded JSON --- *)

(* Reads exactly the flat `"name": float` object [write_json] emits;
   anything that doesn't parse as such a line is skipped. *)
let read_json_entries file =
  let ic = open_in file in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '"' with
       | None -> ()
       | Some i -> (
         match String.index_from_opt line (i + 1) '"' with
         | None -> ()
         | Some j -> (
           let name = String.sub line (i + 1) (j - i - 1) in
           let rest =
             String.trim (String.sub line (j + 1) (String.length line - j - 1))
           in
           if String.length rest > 1 && rest.[0] = ':' then
             let v = String.trim (String.sub rest 1 (String.length rest - 1)) in
             let v =
               if String.length v > 0 && v.[String.length v - 1] = ',' then
                 String.sub v 0 (String.length v - 1)
               else v
             in
             match float_of_string_opt v with
             | Some x -> entries := (name, x) :: !entries
             | None -> ()))
     done
   with End_of_file -> close_in ic);
  List.rev !entries

(* Gate: only the `mmc/core/*` kernel estimates are regression-fatal —
   they are the perf trajectory this repo pins; metrics and the other
   groups print for the record but carry machine-specific noise. *)
let regression_limit = 1.25

let compare_against old_file entries =
  (* A baseline that is unreadable, unparseable, or lacks this run's
     groups entirely (a new group benched against a pre-group
     trajectory file) is a skip under --compare-warn, not an error:
     new groups must be able to seed their own baseline. *)
  let old =
    match read_json_entries old_file with
    | entries -> entries
    | exception Sys_error msg ->
      Fmt.epr "bench-diff: cannot read baseline %s (%s)@." old_file msg;
      if compare_warn then []
      else exit 2
  in
  match old with
  | [] ->
    Fmt.epr "bench-diff: no entries parsed from %s@." old_file;
    if compare_warn then
      Fmt.pr "bench-diff: --compare-warn, skipping comparison@."
    else exit 2
  | old ->
    let fresh, common =
      List.partition_map
        (fun (name, now) ->
          if String.length name >= 9 && String.sub name 0 9 = "baseline/" then
            Right None
          else
            match List.assoc_opt name old with
            | Some before -> Right (Some (name, before, now))
            | None -> Left name)
        entries
    in
    let common = List.filter_map Fun.id common in
    Fmt.pr "@.=== bench-diff vs %s (%d shared keys) ===@." old_file
      (List.length common);
    if fresh <> [] then
      Fmt.pr "bench-diff: %d key(s) absent from the baseline (new group?), \
              skipped@."
        (List.length fresh);
    Fmt.pr "%-48s %14s %14s %8s@." "key" "old" "new" "ratio";
    List.iter
      (fun (name, before, now) ->
        Fmt.pr "%-48s %14.1f %14.1f %8.3f%s@." name before now
          (now /. Float.max 1e-9 before)
          (if now > regression_limit *. before then "  <-- slower" else ""))
      common;
    let regressions =
      List.filter
        (fun (name, before, now) ->
          String.length name >= 9
          && String.sub name 0 9 = "mmc/core/"
          && now > regression_limit *. before)
        common
    in
    if regressions = [] then
      Fmt.pr "bench-diff: no core regression beyond %.0f%%@."
        ((regression_limit -. 1.) *. 100.)
    else begin
      Fmt.pr "bench-diff: %d core kernel(s) regressed beyond %.0f%%:@."
        (List.length regressions)
        ((regression_limit -. 1.) *. 100.);
      List.iter
        (fun (name, before, now) ->
          Fmt.pr "  %s: %.1f -> %.1f (%.2fx)@." name before now (now /. before))
        regressions;
      if compare_warn then Fmt.pr "bench-diff: --compare-warn, not failing@."
      else exit 3
    end

let () =
  Fmt.pr "=== Bechamel micro-benchmarks (one group per experiment) ===@.";
  let results = benchmark () in
  let rows =
    match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
    | None -> []
    | Some tbl ->
      Hashtbl.fold
        (fun name ols acc ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Some est
            | _ -> None
          in
          (name, est) :: acc)
        tbl []
      |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
  in
  if rows = [] then Fmt.pr "no results@."
  else
    List.iter
      (fun (name, est) ->
        match est with
        | Some est -> Fmt.pr "%-40s %12.1f ns/run@." name est
        | None -> Fmt.pr "%-40s (no estimate)@." name)
      rows;
  if json_file <> None || compare_file <> None then begin
    let entries =
      baselines
      @ List.filter_map (fun (n, e) -> Option.map (fun e -> (n, e)) e) rows
      @ collect_metrics ()
    in
    Option.iter (fun file -> write_json file entries) json_file;
    if !hard_failures <> [] then begin
      List.iter (fun f -> Fmt.epr "bench: FAILED check: %s@." f) !hard_failures;
      exit 4
    end;
    Option.iter (fun old_file -> compare_against old_file entries) compare_file
  end;
  if only = [] then begin
    Fmt.pr "@.=== Experiment tables (simulated-time metrics) ===@.";
    List.iter
      (fun (e : Mmc_experiments.Registry.entry) ->
        Mmc_experiments.Table.print (e.quick ());
        print_newline ())
      Mmc_experiments.Registry.all
  end
