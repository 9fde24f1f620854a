#!/usr/bin/env bash
# Builds the open-loop service benchmark from the checkout's sources and
# runs it. Run from the root of a luf checkout:
#
#   bash perfbench/run.sh --workload write-sync --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch space all live under
# .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a luf checkout (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
