#!/bin/sh
# Determinism canary: print the count lines of one faulty `mmc recover`
# run and one fault-free rmsc soak — virtual time, messages,
# retransmits, acks, WAL and storage counters, catch-up, broadcast,
# engine events and tick latencies.  The runtest rule diffs them
# against canary.expected, so a change that moves any event, message,
# timer or counter of these runs fails it.  A change meant to alter
# the protocol's runs re-records the file (`dune runtest; dune
# promote`) and says so.
#
# usage: sh test/canary.sh PATH/TO/mmc_cli.exe
set -eu
mmc=$1

"$mmc" recover --seed 1 \
  --plan 'drop=0.05,wipe=1:150:600,tear=1:150,rot=0:200,stale=2:250' |
  grep -E '^(completed ops|virtual time|messages|dropped|retransmits|restarts|recoveries|wal|storage|catch-up|broadcast|detector|stability acks) '

"$mmc" soak --store rmsc --ops 4000 --seed 1 |
  grep -E '^(arrived ops|completed ops|virtual time|messages|engine events|latency|query latency|update latency|max queue) '
