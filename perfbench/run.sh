#!/usr/bin/env bash
# Builds WiClean's benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload mine-soccer --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files and the binary) goes under .bench_build/,
# and the toolchain is kept local and offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
