#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ at the root of the checkout (Go's build cache goes
# there too, so nothing is written outside the checkout), then runs it
# with the arguments it was given. Run it from the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/fkbench" .)
exec "$build/fkbench" -out "$here/out" "$@"
