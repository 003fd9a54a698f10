#!/bin/sh
# Flat-heap gate: an open-loop soak's peak process heap must not grow
# with the number of m-operations.  For msc and mlin, run `mmc soak` at
# 20k and at 80k operations, each in its own process (top_heap_words is
# per process and never falls), and fail unless the 80k run's
# top_heap_w is below 1.2x the 20k run's.  The configuration is not
# overloaded, so the arrival backlog stays bounded; an overloaded one
# (e.g. --rate 3) grows its queue, and with it the heap, by design.
#
# usage: sh test/heap_gate.sh PATH/TO/mmc_cli.exe
set -eu
mmc=$1

heap() {
  "$mmc" soak --store "$1" --ops "$2" --procs 4 --objects 16 --rate 8 \
    --seed 7 |
    sed -n 's/^soak summary .* top_heap_w=\([0-9]*\) verdict=PASS$/\1/p'
}

for store in msc mlin; do
  small=$(heap "$store" 20000)
  large=$(heap "$store" 80000)
  if [ -z "$small" ] || [ -z "$large" ]; then
    echo "heap gate: $store soak did not PASS" >&2
    exit 1
  fi
  echo "heap gate: $store top_heap_w $small at 20k ops, $large at 80k ops"
  # large < 1.2 * small, in integers
  if [ $((5 * large)) -ge $((6 * small)) ]; then
    echo "heap gate: $store heap grew with the op count" >&2
    exit 1
  fi
done
