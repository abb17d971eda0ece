#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build; run records and span
# logs go under .bench_runs.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the simulator sources (go.mod, internal/) are missing" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" "$@"
