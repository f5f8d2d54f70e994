#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload warm-crowd --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# lands under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build-dir "$build" "$@"
