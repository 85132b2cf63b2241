#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ at the repository root. The build fails, and so does
# this script, when the simulator's sources are not beside perfbench/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$bench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
