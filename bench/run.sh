#!/usr/bin/env bash
# Build bench/hlload and run it with the arguments given, from the root of
# a checkout:
#
#   bash bench/run.sh --workload hot-key --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and every temp dir (journals, lockd processes)
# live under .bench_build/, span files under bench/out/.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run me from the root of the checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-buildvcs=false

go build -C "$root/bench" -o "$build/hlload" ./hlload
exec "$build/hlload" "$@"
