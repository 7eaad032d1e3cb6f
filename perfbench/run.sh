#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload score-single --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build,
# including the Go build cache and the go command's own config and
# telemetry directory, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
