#!/usr/bin/env python3
"""Soak benchmark for mmc: verified m-operations per second, peak heap,
tick latency and set-up time over four workloads, plus a traced
per-layer run.

Run from the repository root:

    python3 soakbench/run.py --workload msc-mixed --seed 1 --seconds 20 --trace 0

It builds soakbench/soakbench.exe with dune, then:

  * runs the negative control (msc-mixed with one injected stale read,
    which must FAIL; not timed);
  * starts several set-up-only processes (each exits at its first
    generated m-operation) for the set-up time;
  * with --trace 0, runs the workload in fresh processes through the
    library's own entry points until --seconds have passed and reports
    the end-to-end metrics as medians over the processes (the p99 tick
    latency as a mean);
  * with --trace 1, runs pairs of processes on the same seed, untraced
    and traced (spans around each layer's calls, plus checker kernels
    at window size), and reports the per-layer metrics.

Every run must verify PASS with every arrival completed.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --ops N shrinks the workload (tests).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", PKG, "soakbench.exe")

WORKLOADS = ("msc-mixed", "mlin-hot", "rmsc-lossy", "seg-sharded")
SETUP_PROCS = 7  # set-up-only processes per run
MIN_PROCS = 3  # measured processes (or traced pairs) per run, at least
BUILD_TIMEOUT = 850
# The control is pinned to one seed: at some seeds (408, for one) the
# injected stale read lands behind the checker's retired frontier, and
# the verdict is INCONCLUSIVE rather than FAIL.
CONTROL_SEED = 1
PROC_TIMEOUT = 120


class BenchError(Exception):
    pass


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            cmd + ["build", "--root", ROOT, "--display", "quiet",
                   f"{PKG}/soakbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed:\n" + (r.stdout + r.stderr)[-3000:])


def proc(*args):
    """Run soakbench.exe once; its JSON line plus the spawn time."""
    t_spawn = time.time()
    try:
        r = subprocess.run([EXE, *map(str, args)], cwd=ROOT,
                           capture_output=True, text=True,
                           timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"soakbench.exe {args} timed out")
    if r.returncode != 0:
        raise BenchError(f"soakbench.exe {args} exited {r.returncode}:\n"
                         + r.stderr[-2000:])
    d = json.loads(r.stdout.strip().splitlines()[-1])
    d["setup_s"] = d["t_first"] - t_spawn if "t_first" in d else None
    return d


def passed(d, ops):
    return (all(v == "PASS" for v in d["verdicts"])
            and d["arrived"] == d["completed"]
            and (ops is None or d["arrived"] >= ops))


def agrees(u, t):
    keys = ("verdicts", "arrived", "completed", "lat_n", "p50", "p99",
            "epochs")
    return all(u[k] == t[k] for k in keys)


def ratio(a, b):
    return a / b if b else 0.0


def ops_per_s(d):
    return d["completed"] / (d["t_end"] - d["t_first"])


def end_to_end(runs, setups):
    return {
        "verified_ops_per_s": (statistics.median(ops_per_s(d) for d in runs),
                               "ops/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_heap_mb": (
            statistics.median(d["top_heap_words"] * 8 / 1e6 for d in runs),
            "MB"),
        # Tick quantiles repeat exactly per seed; the mean over the
        # processes' seeds keeps every digit.
        "latency_p99_ticks": (statistics.mean(d["p99"] for d in runs),
                              "ticks"),
    }


def per_layer(u, t):
    """Per-layer metrics of one untraced run u and its traced mirror t."""
    st = dict(zip(t["self_names"], t["self"]))
    wall_t = t["t_end"] - t["t0"]
    wall_u = u["t_end"] - u["t0"]
    done = t["completed"]
    fed = t["fed"]
    gen = t["n_gen"]
    sharded = t["sharded"]
    return {
        "workload.gen_us_per_op": (ratio(st["workload"], gen) * 1e6, "us"),
        "store.invoke_us_per_op": (ratio(st["store"], gen) * 1e6, "us"),
        "sim.engine_self_s": (st["sim"], "s"),
        "sim.events_per_op": (ratio(t["events"], done), "events/op"),
        "sim.msgs_per_op": (ratio(t["messages"], done), "msgs/op"),
        "sim.retransmissions_per_op": (ratio(t["retransmissions"], done),
                                       "msgs/op"),
        "sim.drops": (t["drops"], "count"),
        "broadcast.resubmits": (t["resubmits"], "count"),
        "broadcast.epochs": (t["bcast_epochs"], "count"),
        "recovery.appends_per_op": (ratio(t["appends"], done), "count/op"),
        "recovery.checkpoints": (t["checkpoints"], "count"),
        "recovery.stability_acks_per_op": (ratio(t["stability_acks"], done),
                                           "msgs/op"),
        "soak.self_us_per_op": (ratio(st["soak"], done) * 1e6, "us"),
        "recorder.drain_us_per_op": (ratio(st["recorder"], done) * 1e6,
                                     "us"),
        "stream.reorder_us_per_op": (ratio(st["reorder"], done) * 1e6, "us"),
        "stream.entry_us_per_op": (ratio(st["entry"], fed) * 1e6, "us"),
        "stream.feed_us_per_op": (ratio(st["feed"], fed) * 1e6, "us"),
        "stream.epoch_ms": (t["epoch_feed_ms"], "ms"),
        "stream.epoch_checks": (t["epochs"], "count"),
        "stream.check_share": (ratio(st["feed"] + st["finish"], wall_t),
                               "frac"),
        "stream.epochs_per_kop": (ratio(t["epochs"], fed) * 1e3, "count/kop"),
        "stream.max_live": (t["max_live"], "count"),
        "stream.max_resident_words": (t["max_resident_words"], "words"),
        "stream.arena_hit_ratio": (
            ratio(t["arena_hits"], t["arena_hits"] + t["arena_misses"]),
            "frac"),
        "core.closure_us": (t["k_closure_us"], "us"),
        "core.triples_us": (t["k_triples_us"], "us"),
        "core.legality_us": (t["k_legality_us"], "us"),
        "core.witness_us": (t["k_witness_us"], "us"),
        "core.triples_per_window": (t["k_triples"], "count"),
        "shard.run_s": (t["t_run"] - t["t0"] if sharded else 0.0, "s"),
        "shard.verify_s": (t["t_end"] - t["t_run"] if sharded else 0.0, "s"),
        "shard.stitch_s": (st["stitch"], "s"),
        "shard.history_s": (st["history"], "s"),
        "shard.cross_shard_frac": (
            ratio(t["cross_shard"], t["cross_shard"] + t["single_shard"]),
            "frac"),
        "fastpath.local_frac": (
            ratio(t["fast_local"], t["fast_local"] + t["escalated"]), "frac"),
        "fastpath.flushes_per_op": (ratio(t["flushes"], done), "count/op"),
        "gc.minor_words_per_op": (ratio(u["minor_words"], u["completed"]),
                                  "words/op"),
        "gc.major_words_per_op": (ratio(u["major_words"], u["completed"]),
                                  "words/op"),
        "gc.major_collections": (u["major_collections"], "count"),
        "latency.p50_ticks": (u["p50"], "ticks"),
        "latency.samples": (u["lat_n"], "count"),
        "trace.overhead_frac": (wall_t / wall_u - 1, "frac"),
        "trace.accounted_frac": (1 - st["harness"] / wall_t, "frac"),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="m-operations per process (reduced-size tests)")
    a = ap.parse_args(argv)

    build()
    w = a.workload
    size = [] if a.ops is None else [a.ops]

    control = proc("control", CONTROL_SEED)
    control_ok = control["verdict"] == "FAIL"

    setups = [proc("setup", w, a.seed * 1000 + i, *size)["setup_s"]
              for i in range(SETUP_PROCS)]

    runs, pairs = [], []
    t_start = time.time()
    i = 0
    while i < MIN_PROCS or time.time() - t_start < a.seconds:
        sub = a.seed * 1000 + i
        u = proc("run", w, sub, *size)
        runs.append(u)
        setups.append(u["setup_s"])
        if a.trace:
            pairs.append((u, proc("traced", w, sub, *size)))
        i += 1

    measured = runs + [t for _, t in pairs]
    ok = [passed(d, a.ops) for d in measured]
    correct = (control_ok and all(ok)
               and all(t["k_ok"] for _, t in pairs))
    attempted = sum(d["arrived"] for d in measured)
    failed = sum(d["arrived"] if not good else d["arrived"] - d["completed"]
                 for d, good in zip(measured, ok))

    if a.trace:
        agree = all(agrees(u, t) for u, t in pairs)
        layers = [per_layer(u, t) for u, t in pairs]
        metrics = {k: (statistics.median(l[k][0] for l in layers), unit)
                   for k, (_, unit) in layers[0].items()}
        metrics["trace.agrees"] = (1.0 if agree else 0.0, "bool")
        t = pairs[0][1]
        wall = t["t_end"] - t["t0"]
        shares = {n: round(s / wall, 4) for n, s in
                  zip(t["self_names"], t["self"]) if s / wall >= 0.0005}
        print("# layer shares of traced wall (first pair): "
              + json.dumps(shares))
        if not agree:
            print("# WARNING: traced run disagrees with the untraced run on "
                  "the same seed; per-layer numbers are stale")
    else:
        metrics = end_to_end(runs, setups)

    detail = {
        "workload": w, "seed": a.seed,
        "process_seeds": [a.seed * 1000 + j for j in range(i)],
        "processes": len(runs), "control": control["verdict"],
        "latency_p50_ticks": statistics.mean(d["p50"] for d in runs),
        "latency_samples": sum(d["lat_n"] for d in runs),
        "epochs": sum(d["epochs"] for d in runs),
        "gc_minor_words": sum(d["minor_words"] for d in runs),
        "gc_major_words": sum(d["major_words"] for d in runs),
        "gc_major_collections": sum(d["major_collections"] for d in runs),
    }
    print("# " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"soakbench: {e}", file=sys.stderr)
        sys.exit(2)
