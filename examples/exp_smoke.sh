#!/usr/bin/env bash
# Experiment-registry smoke test: `stepctl exp` end to end.
#
# Regenerates every paper artifact in quick mode (seed 7) and checks
# that stdout is exactly the committed goldens concatenated in
# `stepctl exp -list` order (each followed by the newline Println
# adds), that -out wrote one CSV per artifact, and that an unknown
# -fig fails. Run from anywhere; `make exp-smoke` runs it in CI.
#
# Usage: examples/exp_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/stepctl" ./cmd/stepctl

echo "== expected stdout: goldens in -list order =="
n=0
for id in $("$WORK/stepctl" exp -list | awk '{print $1}'); do
  golden=""
  for dir in internal/experiments/testdata/golden internal/scenario/testdata/golden; do
    [ -f "$dir/$id.txt" ] && golden="$dir/$id.txt"
  done
  [ -n "$golden" ] || { echo "no golden artifact for $id" >&2; exit 1; }
  cat "$golden" >>"$WORK/want.txt"
  echo >>"$WORK/want.txt"
  n=$((n + 1))
done
echo "$n artifacts"

echo "== stepctl exp -quick -workers 2 -out: diff stdout against the goldens =="
"$WORK/stepctl" exp -quick -workers 2 -out "$WORK/csv" >"$WORK/got.txt"
diff "$WORK/want.txt" "$WORK/got.txt"

csvs=$(ls "$WORK/csv"/*.csv | wc -l)
[ "$csvs" -eq "$n" ] || { echo "-out wrote $csvs CSVs, want $n" >&2; exit 1; }
echo "$csvs CSVs"

echo "== an unknown -fig must fail =="
if "$WORK/stepctl" exp -fig nope >/dev/null 2>&1; then
  echo "exp -fig nope exited 0" >&2
  exit 1
fi

echo "exp smoke OK"
