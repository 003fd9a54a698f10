#!/bin/sh
# CLI surface: one line per option of every mmc subcommand, giving the
# option's name, its docv and its default (the `absent=` value), read
# from `--help=plain`.  Only the option heads are read and each is
# split into fields, so the help text, its layout and its wrapping do
# not matter.  The runtest rule diffs the output against
# cli_surface.expected: a change that adds, drops or renames a flag,
# or changes a docv or a default, fails it.
#
# usage: sh test/cli_surface.sh PATH/TO/mmc_cli.exe
set -eu
mmc=$1

for cmd in simulate soak faults recover chaos shard check generate \
  experiments figures dot show stats; do
  "$mmc" "$cmd" --help=plain |
    awk -v cmd="$cmd" '
      /^[A-Z]/ { section = $0; next }
      section != "OPTIONS" && section != "ARGUMENTS" { next }
      !/^ +[^ ]/ { next }
      {
        # Indented more than a head: the wrapped doc text below it.
        match($0, /^ +/)
        if (RLENGTH > 8) next
        head = substr($0, RLENGTH + 1)
        sub(/ +$/, "", head)
        # A short head shares its line with the doc, two spaces on.
        if (match(head, /  +/)) head = substr(head, 1, RSTART - 1)
        default = "-"
        if (match(head, / \(.*\)$/)) {
          default = substr(head, RSTART + 2, RLENGTH - 3)
          head = substr(head, 1, RSTART - 1)
        }
        name = head
        docv = "-"
        if ((i = index(head, "=")) > 0) {
          name = substr(head, 1, i - 1)
          docv = substr(head, i + 1)
        }
        if (name ~ /^--(help|version)/) next
        print cmd, name, docv, default
      }'
done
