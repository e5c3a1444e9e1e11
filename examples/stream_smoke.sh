#!/usr/bin/env bash
# Streaming smoke test — the per-point result pipeline end to end.
#
# Runs the same canned spec three ways and requires byte-identical
# tables from all of them:
#   1. `stepctl sweep` (batch) vs `stepctl sweep -follow` (rows stream
#      to stderr as points land; stdout must not change),
#   2. `stepctl watch` tailing a live `stepctl serve` job over the
#      GET /sweeps/{id}/stream NDJSON feed,
#   3. `stepctl watch` of a cache-hit job, replayed from the stored
#      rows.ndjson journal instead of a live sweep,
#   4. `stepctl watch` of a job served from an entry that
#      `stepctl sweep -cache` wrote into the server's cache directory:
#      the CLI journals the same rows, coordinates included.
# Run from anywhere; `make stream-smoke` runs it in CI.
#
# Usage: examples/stream_smoke.sh [spec-id]   (default: gqa-ratio)
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${1:-gqa-ratio}"
ADDR="${STEP_STREAM_ADDR:-127.0.0.1:8375}"
BASE="http://$ADDR"
GOLDEN="internal/scenario/testdata/golden/$SPEC.txt"
WORK="$(mktemp -d)"

[ -f "$GOLDEN" ] || { echo "no golden artifact $GOLDEN" >&2; exit 1; }

go build -o "$WORK/stepctl" ./cmd/stepctl

echo "== sweep -follow: progressive rows, unchanged stdout =="
"$WORK/stepctl" sweep -name "$SPEC" -quick >"$WORK/plain.txt"
"$WORK/stepctl" sweep -name "$SPEC" -quick -follow >"$WORK/follow.txt" 2>"$WORK/follow.log"
diff "$WORK/plain.txt" "$WORK/follow.txt"
grep -q '^row ' "$WORK/follow.log" || { echo "-follow printed no rows" >&2; exit 1; }

"$WORK/stepctl" serve -addr "$ADDR" -cache-dir "$WORK/cache" &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true; wait "$SERVER" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 50); do
  curl -sf "$BASE/specs" >/dev/null 2>&1 && break
  sleep 0.2
done

echo "== watch a live job: tail the NDJSON stream as it lands =="
curl -sf -X POST "$BASE/sweeps?name=$SPEC&seed=7&quick=1" >"$WORK/job.json"
JOB=$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$WORK/job.json")
"$WORK/stepctl" watch "$ADDR" "$JOB" >"$WORK/watch.txt" 2>"$WORK/watch.log"
diff "$WORK/plain.txt" "$WORK/watch.txt"
grep -q '^row ' "$WORK/watch.log" || { echo "watch printed no rows" >&2; exit 1; }
diff "$GOLDEN" <(head -c -1 "$WORK/watch.txt")

echo "== watch a cached job: replay from the stored journal =="
curl -sf -X POST "$BASE/sweeps?name=$SPEC&seed=7&quick=1&wait=5m" >"$WORK/job2.json"
grep -q '"state": "cached"' "$WORK/job2.json" || { echo "repeat was not served from the cache" >&2; exit 1; }
JOB2=$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$WORK/job2.json")
"$WORK/stepctl" watch "$ADDR" "$JOB2" >"$WORK/watch2.txt" 2>/dev/null
diff "$WORK/watch.txt" "$WORK/watch2.txt"

echo "== raw stream shape: start first, done last =="
curl -sf "$BASE/sweeps/$JOB2/stream" >"$WORK/stream.ndjson"
head -1 "$WORK/stream.ndjson" | grep -q '"type":"start"' || { echo "stream does not open with a start event" >&2; exit 1; }
tail -1 "$WORK/stream.ndjson" | grep -q '"type":"done"' || { echo "stream does not end with a done event" >&2; exit 1; }

echo "== CLI-cached entry: the server replays the CLI's journal =="
"$WORK/stepctl" sweep -name "$SPEC" -quick -seed 9 -cache -cache-dir "$WORK/cache" >"$WORK/cli9.txt" 2>/dev/null
curl -sf -X POST "$BASE/sweeps?name=$SPEC&seed=9&quick=1" >"$WORK/job3.json"
grep -q '"state": "cached"' "$WORK/job3.json" || { echo "CLI-cached entry was not served from the cache" >&2; exit 1; }
JOB3=$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$WORK/job3.json")
"$WORK/stepctl" watch "$ADDR" "$JOB3" >"$WORK/watch3.txt" 2>/dev/null
diff "$WORK/cli9.txt" "$WORK/watch3.txt"
curl -sf "$BASE/sweeps/$JOB3/stream" >"$WORK/stream3.ndjson"
grep -q '"type":"row"' "$WORK/stream3.ndjson" || { echo "CLI-cached replay has no rows" >&2; exit 1; }
if grep '"type":"row"' "$WORK/stream3.ndjson" | grep -qv '"coords":'; then
  echo "CLI-cached replay dropped row coords" >&2; exit 1
fi

echo "stream smoke OK: $SPEC byte-identical across batch, -follow, live watch, journal replay, and CLI-cached replay"
