#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Everything the build and the run write — compiler
# cache, temporary files, the binary, index files, span files — stays under
# .bench_build/ in that checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$out/oipsr-benchmark" .
exec "$out/oipsr-benchmark" "$@"
