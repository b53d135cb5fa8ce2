#!/usr/bin/env bash
# Builds autopiped and the benchmark from this checkout, then runs the
# benchmark from the repository root with every argument passed through:
#
#   bash bench/run.sh -workload paper-mix -seed 1 -seconds 30 -trace 0
#   bash bench/run.sh -compare parent.jsonl change.jsonl
#
# Builds, the Go build cache, journals, profiles and results all stay in
# .bench_build/ under the root, and the Go toolchain is kept offline.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/autopiped" ./cmd/autopiped
go build -C bench -o "$out/bin/autopipe-bench" ./cmd/autopipe-bench
exec "$out/bin/autopipe-bench" -autopiped "$out/bin/autopiped" "$@"
