#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash kktbench/run.sh --workload mst-build-20k --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files and the binary live in .bench_build/
# so the build writes nothing outside the checkout; the module depends
# only on the repository itself, so no network access is needed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOWORK=off

(cd "$root/kktbench" && go build -o "$out/bin/kktbench" .)
exec "$out/bin/kktbench" "$@"
