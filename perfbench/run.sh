#!/usr/bin/env bash
# Builds the benchmark and fdrepaird from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/fdrepaird ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/fdrepaird and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Offline, reproducible build: local toolchain only, no module downloads,
# caches inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go -C perfbench build -o "$out/bin/perfbench" .
go -C perfbench build -o "$out/bin/fdrepaird" repro/cmd/fdrepaird
exec "$out/bin/perfbench" -daemon "$out/bin/fdrepaird" -out "$out" "$@"
