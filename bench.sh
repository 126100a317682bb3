#!/usr/bin/env bash
# bench.sh — run the lock-manager and wire-codec micro-benchmarks, the
# loopback-TCP write+commit, plus a figure smoke benchmark, and emit the
# results as machine-readable JSON. The output path
# defaults to the next free BENCH_<n>.json (one past the highest number
# already present), or the path given as $1.
#
# Each entry carries the benchmark name, iteration count, and every metric
# the benchmark reported (ns/op, B/op, allocs/op, plus custom metrics such
# as "tps:PS:w=0.02").
set -euo pipefail
cd "$(dirname "$0")"

if [[ $# -ge 1 ]]; then
  out=$1
else
  last=0
  for f in BENCH_*.json; do
    [[ -e $f ]] || continue
    n=${f#BENCH_}; n=${n%.json}
    [[ $n =~ ^[0-9]+$ ]] && (( n > last )) && last=$n
  done
  out=BENCH_$((last + 1)).json
fi
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

{
  go test -run '^$' -benchtime=1s -benchmem \
    -bench 'BenchmarkUncontendedGrantRelease|BenchmarkMixedParallel|BenchmarkLocksWithinTable|BenchmarkConflictingOnHotPage' \
    ./internal/lock/
  go test -run '^$' -benchtime=1s -benchmem \
    -bench 'BenchmarkCodecEncode|BenchmarkCodecDecode' ./internal/core/
  go test -run '^$' -benchtime=1s -benchmem -bench 'BenchmarkEndToEndTCPWriteCommit' .
  go test -run '^$' -bench 'BenchmarkFig06' -benchtime=1x -benchmem .
} | tee "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 4 {
  line = ""
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1)
    gsub(/\\/, "\\\\", unit); gsub(/"/, "\\\"", unit)
    line = line sprintf(", \"%s\": %s", unit, $i)
  }
  entries[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s%s}", $1, $2, line)
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchmarks\": [\n", date, commit
  for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i + 1 < n ? "," : "")
  print "  ]\n}"
}
' "$tmp" > "$out"
echo "wrote $out"
