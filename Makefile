# Repeatable entry points; `make check` is the tier-1 gate.

DUNE ?= dune

.PHONY: all build test check ci smoke shard-smoke recover-smoke chaos-smoke scrub-smoke soak-smoke soak-snapshot fastpath-smoke soakbench-test bench-smoke bench-diff experiments bench-json clean

all: build

build:
	$(DUNE) build

# Full test suite (includes the fault-sweep smoke rules in test/dune).
test:
	$(DUNE) runtest

# Tier-1 gate: everything builds and every test passes.
check: build test

# What .github/workflows/ci.yml runs (its one job is `make ci`): build,
# full test suite, the recovery, chaos, storage, soak and fastpath
# smokes, the soak benchmark self-test and the bench smoke (reduced
# sizes, compared against the committed trajectory in warn mode — CI
# runners are too noisy for a hard perf gate, but a broken bench or a
# failed built-in metric assertion still fails the job via the bench
# exit code).
ci: build test recover-smoke chaos-smoke scrub-smoke soak-smoke fastpath-smoke soakbench-test bench-smoke

# Soak benchmark self-test: every BENCHMARK.json workload at 2000
# m-operations, untraced and traced (about 12 s); exits non-zero
# unless each run is correct with no failed operation, prints exactly
# the declared metrics and, traced, agrees with the untraced run.
soakbench-test: build
	python3 soakbench/test_run.py

# Reduced-size bench pass over the core, fastpath, sim, shard and
# stream groups with metric assertions active (the stream group's
# flat-memory ceiling, PASS verdict and seeded-corruption FAIL among
# them), written to a scratch JSON and diffed against the committed
# BENCH_core.json in warn-only mode.
bench-smoke: build
	$(DUNE) build bench/main.exe
	$(DUNE) exec bench/main.exe -- --quick --only core --only fastpath \
	  --only sim --only shard --only stream --json /tmp/bench-smoke.json \
	  --compare BENCH_core.json --compare-warn

# Hard perf gate for local use: re-run the core group at full size
# and fail (exit 3) on any >25% regression against the committed
# trajectory, or (exit 4) on a failed built-in metric assertion.
bench-diff: build
	$(DUNE) exec bench/main.exe -- --only core \
	  --json /tmp/bench-diff.json --compare BENCH_core.json

# Stand-alone fault smoke: lossy plan with a partition and a crash
# window; exits non-zero unless the trace passes the Theorem-7 check.
smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- faults --store msc \
	  --plan 'drop=0.3,spike=0.05:40,part=100:350:0,crash=2:50:300' \
	  --ops 8 --seed 1

# Sharded-store smoke: four shards, cross-shard traffic; exits
# non-zero unless the stitched history passes the Theorem-7 check and
# the decomposed and batch verdicts agree.
shard-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- shard --shards 4 --ops 10 \
	  --cross 0.2 --seed 3

# Crash-recovery smoke: wipe-crash the initial sequencer and a
# follower (the default `mmc recover` plan), under both broadcasts;
# exits non-zero unless every replica converges to identical state and
# the history stitched across crash epochs passes the Theorem-7 check.
recover-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- recover --seed 1
	$(DUNE) exec bin/mmc_cli.exe -- recover --abcast lamport \
	  --checkpoint-every 4 --seed 2

# Chaos smoke: 25 random fault plans (fixed seed base) against the
# recoverable store under quorum-stable delivery, then 20 plans at 400
# operations per process; exits non-zero unless every plan converges,
# passes the stitched Theorem-7 check and accounts for all of its
# wipe-crash restarts.
chaos-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- chaos --plans 25 --seed 1
	$(DUNE) exec bin/mmc_cli.exe -- chaos --plans 20 --ops 400 --seed 21

# Storage-fault smoke: fuzzed plans also draw torn writes, bit-rot
# and stale-checkpoint loss — 25 of them must still satisfy every
# recovery oracle with CRC framing + scrubbing on, as must a recover
# run over an explicit tear+rot+stale plan; the same style of
# corruption with integrity checking disabled must reach replay and
# diverge (exit 2 asserted — a PASS there means the checksums are not
# load-bearing).
scrub-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- chaos --plans 25 --seed 1
	$(DUNE) exec bin/mmc_cli.exe -- recover --seed 1 \
	  --plan 'drop=0.05,wipe=1:150:600,tear=1:150,rot=0:200,stale=2:250'
	$(DUNE) exec bin/mmc_cli.exe -- recover --seed 1 \
	  --plan 'drop=0.1,wipe=0:150:600,rot=0:100' --crc off --scrub off; \
	  test $$? -eq 2

# Streaming-verification smoke: an open-loop soak PASSes under the
# windowed Theorem-7 checker (exit 0), a run with a seeded stale-read
# corruption past op 1500 must FAIL (exit 1 — the exit code is
# asserted, a PASS here is a checker bug), 20k-op msc and mlin soaks
# PASS with the full-trace chain check agreeing (--verify-full; exit 3
# would mean the windowed and full checks disagree) and FAIL together
# on the corrupted mlin run (exit 1 asserted), the flat-heap gate
# holds (msc, mlin and rmsc peak heap at 80k ops < 1.2x at 20k ops,
# one process each), and the NDJSON pipeline (generate --stream | check
# --stream) PASSes a consistent-by-construction trace.
soak-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- soak --store msc --ops 4000 \
	  --procs 4 --objects 12 --rate 3 --seed 7
	$(DUNE) exec bin/mmc_cli.exe -- soak --store mlin --ops 4000 \
	  --procs 4 --objects 12 --rate 3 --corrupt 1500 --seed 7; \
	  test $$? -eq 1
	$(DUNE) exec bin/mmc_cli.exe -- soak --store msc --ops 20000 \
	  --procs 4 --objects 12 --rate 3 --seed 7 --verify-full
	$(DUNE) exec bin/mmc_cli.exe -- soak --store mlin --ops 20000 \
	  --procs 4 --objects 12 --rate 3 --seed 7 --verify-full
	$(DUNE) exec bin/mmc_cli.exe -- soak --store mlin --ops 20000 \
	  --procs 4 --objects 12 --rate 3 --corrupt 1500 --seed 7 \
	  --verify-full; test $$? -eq 1
	sh test/heap_gate.sh _build/default/bin/mmc_cli.exe
	$(DUNE) exec bin/mmc_cli.exe -- generate --family legal --mops 800 \
	  --procs 4 --seed 9 --stream --out /tmp/soak-smoke.ndjson
	$(DUNE) exec bin/mmc_cli.exe -- check --stream --window 64 \
	  /tmp/soak-smoke.ndjson

# README / EXPERIMENTS M1 snapshot: the streaming section's 1M-op and
# 10M-op msc soaks, each in its own process, printing the run's output
# (summary line with top_heap_w and verdict) and its wall time.  The
# 10M run takes several minutes.  Exits non-zero unless both PASS.
soak-snapshot: build
	for ops in 1000000 10000000; do \
	  start=$$(date +%s.%N); \
	  ./_build/default/bin/mmc_cli.exe soak --store msc --ops $$ops \
	    --procs 8 --objects 24 --rate 3 --seed 11 || exit 1; \
	  awk -v s=$$start -v e=$$(date +%s.%N) -v n=$$ops \
	    'BEGIN { printf "wall %.1f s for %d ops\n", e - s, n }'; \
	done

# Coordination-avoidance smoke: the seg store's commute-ratio sweep at
# reduced size — every run exits non-zero unless the per-shard and
# stitched Theorem-7 checks pass (ratio 0 = pure sequenced, 1 = never
# broadcast), plus the A/B `--fastpath off` baseline and the
# deliberately-wrong classifier, whose FAIL exit is asserted (a PASS
# there means the oracle stopped catching unsound classifications).
fastpath-smoke: build
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 12 --commute-ratio 0.0 --seed 2
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 12 --commute-ratio 0.5 --seed 2
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 12 --commute-ratio 0.9 --seed 2
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 12 --commute-ratio 1.0 --seed 2
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 12 --commute-ratio 0.9 \
	  --fastpath off --seed 2
	$(DUNE) exec bin/mmc_cli.exe -- shard --store seg --shards 4 \
	  --procs 6 --objects 32 --ops 20 --commute-ratio 0.9 \
	  --fastpath wrong --seed 2; \
	  test $$? -eq 1

# Quick versions of every registered experiment table.
experiments: build
	$(DUNE) exec bin/mmc_cli.exe -- experiments all --quick

# Perf-trajectory snapshot: the large-history checker kernels, the
# sharded-store, fastpath, stream and chaos groups, written as
# machine-readable JSON (name -> ns/run, plus each group's metrics),
# plus the recovery group's wall-ms run/verify costs and replay
# volumes.  The file also carries the pre-packed-relation baseline
# numbers for comparison.
bench-json: build
	$(DUNE) exec bench/main.exe -- --only core --only shard \
	  --only fastpath --only stream --only recovery --only chaos \
	  --json BENCH_core.json

clean:
	$(DUNE) clean
