#!/usr/bin/env bash
# Check that the committed artifacts are what the code produces: run
# `repro all` in a scratch directory, then compare every CSV it writes
# byte for byte with results/, and its report with results/repro_all.txt
# minus the `[repro]` progress lines (those carry wall-clock times).
#
# Usage: scripts/repro-check.sh [path/to/repro]   (default: target/release/repro)
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
repro=$(realpath "${1:-$root/target/release/repro}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$work" && "$repro" all > repro_all.txt 2>&1)
status=0
# Every CSV either side has, so a missing or an extra artifact fails too.
names=$( (cd "$root/results" && ls -- *.csv; cd "$work/results" && ls -- *.csv) | sort -u)
for name in $names; do
    cmp "$root/results/$name" "$work/results/$name" || status=1
done
diff <(grep -v '^\[repro\]' "$root/results/repro_all.txt") \
     <(grep -v '^\[repro\]' "$work/repro_all.txt") || status=1
if [ "$status" -eq 0 ]; then
    echo "repro-check: $(ls "$work"/results/*.csv | wc -l) CSVs and repro_all.txt match results/"
fi
exit "$status"
