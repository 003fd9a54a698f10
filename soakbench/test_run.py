#!/usr/bin/env python3
"""Reduced-size pass over every workload of the soak benchmark.

Run from the repository root:

    python3 soakbench/test_run.py

For each workload and each of --trace 0 and --trace 1, runs run.py at a
small m-operation count and checks that the run is correct with no
failed operation, that it prints exactly the metrics BENCHMARK.json
names for that mode, each with its unit, and that the traced run agrees
with the untraced one and accounts for at least 90% of its wall time.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OPS = "2000"


def result(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--ops", OPS],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}:\n"
                             + r.stdout[-2000:] + r.stderr[-2000:])
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(workload, trace, spec):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True, out
    assert out["attempted"] >= 1 and out["failed"] == 0, out
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)
    m = out["metrics"]
    if trace:
        assert m["trace.agrees"]["value"] == 1.0, m["trace.agrees"]
        assert m["trace.accounted_frac"]["value"] >= 0.9, \
            m["trace.accounted_frac"]
    else:
        for k in want:
            assert m[k]["value"] > 0, (k, m[k])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            try:
                check(w, trace, spec)
                print(f"ok   {w} --trace {trace}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {w} --trace {trace}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
