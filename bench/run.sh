#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it: `bash bench/run.sh --workload cold_lp --seed 1 --seconds 20 --trace 0`.
# Every file the build and the run write stays inside the checkout
# (.bench_build/ and bench/out/), and the caller's Go environment knobs
# are dropped so two checkouts are built and run the same way.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
unset GOFLAGS GOGC GODEBUG GOMAXPROCS GOMEMLIMIT GOEXPERIMENT
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$build/teccl-bench" .) >&2
cd "$root"
exec "$build/teccl-bench" "$@"
