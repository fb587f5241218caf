#!/usr/bin/env sh
# perfbench-digests.sh — check the perfbench result digests against the
# committed list in scripts/perfbench-digests.txt.
#
#   scripts/perfbench-digests.sh           # fail if any digest moved
#   scripts/perfbench-digests.sh update    # re-record the list
#
# Every perfbench workload hashes what its first repetition computed:
# paper-full the rendered suite report (tables, error texts and request
# labels included), the serving workloads their counters and the exact
# bits of their latencies. A digest therefore moves only when behaviour
# does, never with speed. Each workload runs untraced for one second at
# seeds 7 and 11, and each run must also pass perfbench's own output
# check ("correct":true with no failed operation).
set -eu
cd "$(dirname "$0")/.."

LIST=scripts/perfbench-digests.txt
MODE="${1:-check}"
out="$(mktemp)"
got="$(mktemp)"
trap 'rm -f "$out" "$got"' EXIT

for w in paper-full engine-soak fleet-chaos agent-sessions; do
  for s in 7 11; do
    bash perfbench/run.sh --workload "$w" --seed "$s" --seconds 1 --trace 0 > "$out"
    if ! grep -q '"correct":true,.*"failed":0,' "$out"; then
      echo "perfbench $w seed $s: wrong output" >&2
      cat "$out" >&2
      exit 1
    fi
    d="$(sed -n 's/^perfbench: .* digest \([0-9a-f]*\)$/\1/p' "$out")"
    echo "$w $s $d" | tee -a "$got"
  done
done

case "$MODE" in
  update)
    cp "$got" "$LIST"
    ;;
  check)
    if ! diff -u "$LIST" "$got"; then
      echo "perfbench digests moved; a change that alters behaviour records them with: scripts/perfbench-digests.sh update" >&2
      exit 1
    fi
    ;;
  *)
    echo "usage: scripts/perfbench-digests.sh [check|update]" >&2
    exit 2
    ;;
esac
