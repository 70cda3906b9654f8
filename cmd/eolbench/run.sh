#!/usr/bin/env bash
# Builds eolbench and eolserve from the checkout it is started in, then
# runs eolbench with the given arguments. Start it from the repository
# root:
#
#   bash cmd/eolbench/run.sh -workload paper9 -seed 1 -seconds 15 -trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) goes to .bench_build/ under the root, so a run reads and writes
# nothing outside the checkout apart from the Go toolchain itself.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/eolserve || ! -f cmd/eolbench/go.mod ]]; then
	echo "eolbench: start from the repository root (go.mod, cmd/eolserve and cmd/eolbench/go.mod are needed)" >&2
	exit 2
fi

out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off

go build -o "$out/eolserve" ./cmd/eolserve
(cd cmd/eolbench && go build -o "$out/eolbench" .)
exec "$out/eolbench" -eolserve "$out/eolserve" "$@"
