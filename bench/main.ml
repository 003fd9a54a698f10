(* Benchmark harness: one Bechamel test (or group) per experiment id of
   DESIGN.md / EXPERIMENTS.md, measuring the CPU cost of the kernels
   behind each table.  The tables themselves are `mmc experiments`;
   the end-to-end soak runs are soakbench's.

   Groups:
     checker/T1-*  exhaustive vs Theorem-7 admissibility checking
     checker/T2-*  single-object polynomial vs multi-object exhaustive
     checker/T7    constrained-checker corpus pass
     core/*        large-history Theorem-7 / legality / closure kernels
                   (n in {50,100,200,400}), the perf-trajectory set:
                   the dense reference pipeline (theorem7-ww-N), the
                   chain-decomposed check on the same inputs
                   (theorem7-chain-N) and the construction and
                   validation of those inputs (history-create-N, the
                   step the windowed checker runs once per epoch);
                   with --json also asserts equal verdicts and a
                   >= 10x chain speedup at n = 400
     protocol/P1..P3, C1, J1   store simulations (whole runs)
     broadcast/P4  atomic broadcast simulations
     objects/P5    DCAS contention loop
     figures/F1-F2 paper-figure checking

     shard/*       per-shard verification of one trace of the same
                   total size at S in {1,2,4,8}
     recovery/*    recoverable-store runs under wipe-crashes and
                   storage faults; with --json also records wall-ms
                   run/verify costs and replay volumes
     chaos/*       stable vs optimistic delivery on lossy and
                   sequencer-wipe plans
     sim/*         simulator kernels: engine schedule+run with 8, 256
                   and 4096 events queued, and a WAL scrub pass over
                   80 frames, every frame read vs an unchanged repeat


   Usage: main.exe [--only GROUP]... [--json FILE] [--seed S]
                   [--compare OLD.json] [--compare-warn] [--quick]
     --only GROUP   run the named group(s) only (repeatable, e.g.
                    `--only core --only shard`)
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
    "recovery"; "chaos"; "sim" ]

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
   verdict equality and speedup, the storage-fault repairs): collected
   here, reported and turned into a non-zero exit at the end so one
   failure doesn't hide the rest. *)
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

(* The synchronization order over a history's updates, in id order. *)
let ww_sync h =
  [
    History.real_mops h
    |> List.filter Mop.is_update
    |> List.map (fun (m : Mop.t) -> m.Mop.id);
  ]

let ww_base h =
  let base = History.base_relation h History.Msc in
  Relation.add_edges base (Check_constrained.sync_edges (ww_sync h));
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
      let sync = ww_sync h in
      let base = ww_base h in
      (n, h, sync, base, Relation.transitive_closure base))
    core_sizes

let core_top =
  let n, h, sync, base, _ =
    List.nth core_inputs (List.length core_inputs - 1)
  in
  (n, h, sync, base)

(* The chain-decomposed check over the same history and edges as
   [theorem7-ww-N]'s dense base relation. *)
let chain_check h sync =
  Check_constrained.check_chain h ~flavour:History.Msc ~sync Constraints.WW

let bench_core =
  Test.make_grouped ~name:"core"
    (List.concat_map
       (fun (n, h, sync, base, closed) ->
         [
           Test.make
             ~name:(Fmt.str "theorem7-ww-%d" n)
             (Staged.stage (fun () ->
                  ignore (Check_constrained.check_relation h base Constraints.WW)));
           Test.make
             ~name:(Fmt.str "theorem7-chain-%d" n)
             (Staged.stage (fun () -> ignore (chain_check h sync)));
           Test.make
             ~name:(Fmt.str "history-create-%d" n)
             (let n_objects = History.n_objects h
              and mops = History.real_mops h
              and rf = History.rf h in
              Staged.stage (fun () ->
                  ignore (History.create ~n_objects mops ~rf)));
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
  let n, h, sync, base = core_top in
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
    (fun (n, h, sync, base, _) ->
      let dense = kind_of (Check_constrained.check_relation h base Constraints.WW)
      and chain = kind_of (chain_check h sync) in
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
  let chain_ms = best_ms 50 (fun () -> chain_check h sync) in
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
      Test.make ~name:"figure1-mlin"
        (Staged.stage (fun () ->
             let h, _ = Mmc_workload.Figures.figure1 () in
             ignore (Admissible.check h History.Mlin)));
      Test.make ~name:"figure2-theorem7"
        (Staged.stage (fun () ->
             let h, _, ww = Mmc_workload.Figures.figure2 () in
             let base = History.base_relation h History.Msc in
             Relation.add_edges base ww;
             ignore (Check_constrained.check_relation h base Constraints.WW)));
    ]

(* --- sharded store: per-shard verification --- *)

let shard_counts = [ 1; 2; 4; 8 ]

let shard_spec =
  { Mmc_workload.Spec.default with n_objects = 32; read_ratio = 0.5 }

let shard_ops = if cli_quick then 40 else 100

let run_sharded n_shards =
  let placement = Mmc_shard.Placement.hash ~n_shards ~n_objects:32 in
  Mmc_shard.Shard_runner.run ~seed:(11 + soff) ~placement
    {
      Mmc_store.Runner.default_config with
      n_procs = 6;
      n_objects = 32;
      ops_per_proc = shard_ops;
    }
    ~workload:(Mmc_workload.Generator.sharded placement shard_spec)

(* A single-shard-workload trace per shard count, built once: the
   verification input.  Same total size at every S, so the per-shard
   closure cost (~(n/S)^3 each) is the only variable. *)
let shard_inputs = List.map (fun s -> (s, run_sharded s)) shard_counts

let bench_shard =
  Test.make_grouped ~name:"shard"
    (List.map
       (fun (s, res) ->
         Test.make
           ~name:(Fmt.str "verify-S%d" s)
           (Staged.stage (fun () ->
                ignore
                  (Mmc_shard.Check_sharded.check_shards
                     res.Mmc_shard.Shard_runner.recorders ~flavour:History.Msc))))
       shard_inputs)

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

let recovery_config ~impl ~plan ~checkpoint_every ~scrub_every =
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

let run_recovery cfg =
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
         let cfg = recovery_config ~impl ~plan ~checkpoint_every ~scrub_every in
         Test.make ~name:(Fmt.str "run-%s" name)
           (Staged.stage (fun () -> ignore (run_recovery cfg))))
       recovery_variants)

(* Wall-ms per variant (run + Theorem-7 verification of the stitched
   cross-crash trace), plus the replay/catch-up volume of one run —
   the machine-readable recovery bill, recorded with --json — and the
   storage-corruption variant's corrupt and repaired record counts
   (that storage faults get repaired at all is `test_storage`'s R5
   case).  The scrubber's cost shows up as the wall-clock delta
   between the scrub-on and scrub-off wipe runs. *)
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
        let cfg = recovery_config ~impl ~plan ~checkpoint_every ~scrub_every in
        let ms_run =
          wall_ms (if cli_quick then 3 else 10) (fun () -> ignore (run_recovery cfg))
        in
        let res = run_recovery cfg in
        let ms_verify =
          wall_ms (if cli_quick then 3 else 10)(fun () ->
              ignore
                (Mmc_store.Runner.check_trace res ~flavour:History.Msc))
        in
        let j = Mmc_store.Runner.judge cfg res in
        let metric what n =
          (Fmt.str "metrics/recovery/%s/%s" name what, float_of_int n)
        in
        let base =
          [
            (Fmt.str "metrics/recovery/%s/ms-run" name, ms_run);
            (Fmt.str "metrics/recovery/%s/ms-verify" name, ms_verify);
            metric "replayed" j.wal.Mmc_recovery.Rlog.replayed;
            metric "pulls" (j.handle.Mmc_store.Rstore.pulls ());
          ]
        in
        if name <> "wipe2-seq-storage" then base
        else
          base
          @ [
              metric "repaired" j.wal.Mmc_recovery.Rlog.repaired;
              metric "corrupt" j.wal.Mmc_recovery.Rlog.corrupt;
            ])
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
  end
