#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
