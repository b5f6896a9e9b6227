#!/usr/bin/env bash
# Builds the benchmark and the samie-serve replica binary from the
# checkout it runs in, then runs the benchmark with the given flags.
# Every build and run file stays under .bench_build in the checkout.
#
# Usage, from the root of a samielsq checkout:
#   bash perfbench/run.sh --workload sim-loads --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/experiments || ! -d cmd/samie-serve ]]; then
	echo "perfbench: run from the root of a samielsq checkout" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$build/bin/" ./perfbench ./cmd/samie-serve
exec "$build/bin/perfbench" -build-dir "$build" "$@"
