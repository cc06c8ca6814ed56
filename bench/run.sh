#!/usr/bin/env bash
# Builds reprodbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload check-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, Go config and telemetry, the binary, the
# benchmark's work files) stays under .bench_build/ there, and the
# toolchain is never fetched: the local go is used as is.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$build/reprodbench" ./reprodbench
exec "$build/reprodbench" "$@"
