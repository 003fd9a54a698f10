#!/bin/sh
# Determinism canary: print the count lines of one faulty `mmc recover`
# run, one fault-free rmsc soak, one Zipf-skewed sharded run and one
# msc and one mlin soak — virtual time, messages, retransmits, acks,
# WAL and storage counters, catch-up, broadcast, engine events, router
# counts, tick latencies and the windowed checker's epochs (window
# occupancy, retired prefix and epoch checks, checker words, verdict)
# and of one NDJSON trace under each condition — then the whole stdout
# of one run of each run-style subcommand (simulate, faults, recover,
# chaos, shard and two soaks).  The runtest rule diffs them against
# canary.expected, so a change that moves any event, message, timer or
# counter of these runs, or any line they print, fails it.  A change
# meant to alter the protocol's runs re-records the file (`dune
# runtest; dune promote`) and says so.
#
# usage: sh test/canary.sh PATH/TO/mmc_cli.exe
set -eu
mmc=$1

"$mmc" recover --seed 1 \
  --plan 'drop=0.05,wipe=1:150:600,tear=1:150,rot=0:200,stale=2:250' |
  grep -E '^(completed ops|virtual time|messages|dropped|retransmits|restarts|recoveries|wal|storage|catch-up|broadcast|detector|stability acks) '

"$mmc" soak --store rmsc --ops 4000 --seed 1 |
  grep -E '^(arrived ops|completed ops|virtual time|messages|engine events|latency|query latency|update latency|max queue|window occupancy|retired prefix|checker words|verdict) '

# The only CLI path that draws Zipf keys (`--skew`): a change to the
# workload generators or to `Rng.zipf` that moves any draw moves these
# lines.
"$mmc" shard --shards 4 --procs 8 --objects 32 --ops 100 --skew 0.99 \
  --cross 0.1 --seed 2 |
  grep -E '^(completed ops|virtual time|messages|engine events|router|query latency|update latency) '

# The windowed checker's epochs on the two soak stores it checks most:
# a change to how an epoch history is built or retired that moves any
# epoch, retirement or checker-word count moves these lines.
for store in msc mlin; do
  "$mmc" soak --store "$store" --ops 20000 --seed 3 |
    grep -E '^(window occupancy|retired prefix|checker words|verdict) '
done

# The windowed checker over an NDJSON trace under each condition: the
# only canary runs whose reads name their writer by m-operation id
# rather than by version, and the only ones under m-normality.
for c in msc mnorm mlin; do
  "$mmc" generate --stream --mops 2000 --seed 5 |
    "$mmc" check --stream --condition "$c" --window 16 -
done

# The full stdout of each run-style subcommand, without the
# environment-dependent process heap (`process heap` lines and the
# `top_heap_w=` field): a change to how a subcommand reads its flags,
# builds its run configuration or prints its verdict that moves any
# printed line moves these.  The chaos sweep FAILs seed 100, so it
# also pins a `replay:` line.
strip_heap() {
  grep -v '^process heap ' | sed 's/ top_heap_w=[0-9]*//'
}
"$mmc" simulate --store mlin --ops 5 --seed 3 --check --latency exp:8
"$mmc" faults --store mlin --abcast lamport --plan drop=0.2,part=120:320:0 \
  --ops 8 --seed 2 --batch 2 --fanout 2
"$mmc" recover --abcast lamport --checkpoint-every 4 --ops 8 --seed 2 --json
"$mmc" chaos --plans 6 --seed 95 --ops 400 --verbose || test $? -eq 1
"$mmc" shard --shards 2 --store mlin --ops 8 --cross 0.15 \
  --plan drop=0.2,part=100:300:0 --placement rr --seed 1
"$mmc" soak --store msc --shards 4 --procs 8 --objects 32 --ops 4000 \
  --seed 3 | strip_heap
"$mmc" soak --store mlin --ops 3000 --seed 2 --json --sample-every 500 |
  strip_heap
