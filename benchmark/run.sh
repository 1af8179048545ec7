#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# run artifact under .bench_build in the directory it is started from
# (the repository root). Arguments pass through to the benchmark:
#
#   bash benchmark/run.sh --workload sim-flows --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh steady --runs 10 --seconds 10
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$out/pcebench" .) >&2
if [ "${1:-}" = steady ]; then
	exec "$out/pcebench" "$@"
fi
exec "$out/pcebench" --out-dir "$out/traces" "$@"
