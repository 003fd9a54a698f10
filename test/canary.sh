#!/bin/sh
# Determinism canary: print the count lines of one faulty `mmc recover`
# run, one fault-free rmsc soak, one Zipf-skewed sharded run and one
# msc and one mlin soak — virtual time, messages, retransmits, acks,
# WAL and storage counters, catch-up, broadcast, engine events, router
# counts, tick latencies and the windowed checker's epochs (window
# occupancy, retired prefix and epoch checks, checker words, verdict).  The runtest rule diffs them against canary.expected, so
# a change that moves any event, message, timer or counter of these
# runs fails it.  A change meant to alter the protocol's runs
# re-records the file (`dune runtest; dune promote`) and says so.
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
