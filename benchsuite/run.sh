#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash benchsuite/run.sh --workload hotcold-sim --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, Go's own config and temp files)
# stay under .bench_build in the working directory; CARGO_TARGET_DIR, when
# set, names that directory instead.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -o "$out/benchsuite" .)
exec "$out/benchsuite" "$@"
