#!/bin/sh
# CLI round-trip: generate -> stats -> ingest (+snapshot) must all succeed
# and agree with each other. $1 = path to the remo binary.
set -eu

REMO="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== generate =="
"$REMO" generate --kind rmat --scale 10 --out "$WORK/g.bin" --seed 3
test -s "$WORK/g.bin"

echo "== generate text =="
"$REMO" generate --kind ba --scale 8 --out "$WORK/g.txt" --seed 3
head -2 "$WORK/g.txt"

echo "== stats =="
"$REMO" stats --graph "$WORK/g.bin" | tee "$WORK/stats.out"
grep -q "edges (directed):    16,384" "$WORK/stats.out"

echo "== ingest CON =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 2 --algo none

echo "== ingest BFS + snapshot =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 3 --algo bfs --source 0 \
    --snapshot "$WORK/levels.txt" | tee "$WORK/ingest.out"
grep -q "snapshot written" "$WORK/ingest.out"
test -s "$WORK/levels.txt"
# The source itself must appear at level 1.
grep -q "^0 1$" "$WORK/levels.txt"
# Vertices are listed in strictly ascending id order after the header.
tail -n +2 "$WORK/levels.txt" | sort -c -u -n -k1,1

echo "== ingest CC under Safra termination =="
"$REMO" ingest --graph "$WORK/g.txt" --ranks 2 --algo cc --safra

echo "== observability: --stats / --stats-json / --trace =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 2 --algo bfs --source 0 \
    --stats --stats-json "$WORK/stats.json" --trace "$WORK/trace.json" \
    | tee "$WORK/obs.out"
grep -q "per-update latency" "$WORK/obs.out"
grep -q "p50" "$WORK/obs.out"
grep -q "stats written" "$WORK/obs.out"
grep -q "trace written" "$WORK/obs.out"
test -s "$WORK/stats.json"
test -s "$WORK/trace.json"
grep -q '"schema": "remo-stats-1"' "$WORK/stats.json"
grep -q '"p50_ns"' "$WORK/stats.json"
grep -q '"p99_ns"' "$WORK/stats.json"
grep -q '"local_messages"' "$WORK/stats.json"
# Every engine runs on per-rank arenas and reports the page backing it got.
grep -Eq '"page_backing": "(thp|plain|heap)"' "$WORK/stats.json"
grep -q '"arena_reserved_bytes"' "$WORK/stats.json"
grep -q '"traceEvents"' "$WORK/trace.json"
grep -q '"ph":"X"' "$WORK/trace.json"
grep -q '"thread_name"' "$WORK/trace.json"

echo "== causal lineage: --lineage-out -> trace-analyze =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 4 --algo bfs --source 0 \
    --lineage-out "$WORK/lineage.json" | tee "$WORK/lineage.out"
grep -q "causes sampled" "$WORK/lineage.out"
grep -q "lineage written" "$WORK/lineage.out"
grep -q '"schema":"remo-lineage-1"' "$WORK/lineage.json"
"$REMO" trace-analyze --lineage "$WORK/lineage.json" --top 3 \
    --min-descendants 1 | tee "$WORK/analyze.out"
grep -q "amplification: visitors/update" "$WORK/analyze.out"
grep -q "top 3 by wall-clock span" "$WORK/analyze.out"
grep -q "path: d0 " "$WORK/analyze.out"
grep -q "sampled causes spawned >= 1" "$WORK/analyze.out"
# The gate must fail when the bar is impossibly high.
if "$REMO" trace-analyze --lineage "$WORK/lineage.json" \
    --min-descendants 1000000 >/dev/null 2>&1; then
  echo "expected gate failure"; exit 1
fi

echo "== usage error paths =="
if "$REMO" bogus-command 2>/dev/null; then echo "expected failure"; exit 1; fi
if "$REMO" ingest 2>/dev/null; then echo "expected failure"; exit 1; fi
# An unknown flag or a malformed number exits 2 and names the flag.
rc=0
"$REMO" generate --kind rmat --scale 8 --out "$WORK/u.bin" --bogus-flag 3 \
    2>"$WORK/err.txt" || rc=$?
test "$rc" -eq 2
grep -q -- "--bogus-flag" "$WORK/err.txt"
test ! -e "$WORK/u.bin"
rc=0
"$REMO" ingest --graph "$WORK/g.bin" --ranks abc --algo bfs \
    2>"$WORK/err.txt" || rc=$?
test "$rc" -eq 2
grep -q -- "--ranks" "$WORK/err.txt"
# The sampling and backend settings are constants now; their old flags are
# unknown flags like any other.
for cmd_flag in ingest:--latency-sample ingest:--lineage-sample \
    ingest:--prof-shift ingest:--prof-backend ingest:--prof-period-us \
    serve:--span-sample; do
  cmd="${cmd_flag%%:*}"
  flag="${cmd_flag#*:}"
  rc=0
  "$REMO" "$cmd" --graph "$WORK/g.bin" --ranks 2 "$flag" 4 \
      >/dev/null 2>"$WORK/err.txt" || rc=$?
  test "$rc" -eq 2
  grep -q -- "unknown flag $flag" "$WORK/err.txt"
done

echo "== bench-compare refuses reports from different configs =="
# Two remo-bench-1 reports with identical runs whose config blocks differ
# in one field: the compare must refuse them, and --force must compare
# them (and pass, since no metric moved).
for prof in false true; do
  cat >"$WORK/bench-prof-$prof.json" <<EOF
{"schema": "remo-bench-1", "name": "fig3", "title": "saturation",
 "scale_shift": 0, "repeats": 1,
 "config": {"batch_size": 128, "obs": {"prof": $prof}},
 "runs": [{"dataset": "rmat-12", "ranks": 2, "events": 65536,
           "seconds": 0.5, "events_per_second": 131072}]}
EOF
done
rc=0
"$REMO" bench-compare "$WORK/bench-prof-false.json" "$WORK/bench-prof-true.json" \
    >"$WORK/compare.out" || rc=$?
test "$rc" -ne 0
grep -q "config.obs.prof" "$WORK/compare.out"
"$REMO" bench-compare "$WORK/bench-prof-false.json" "$WORK/bench-prof-true.json" \
    --force

echo "CLI OK"
