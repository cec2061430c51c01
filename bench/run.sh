#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload core1_busy --seed 1 --seconds 16 --trace 0
#
# Everything it writes — the Go build cache, the binary, scratch files and
# span files — goes under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomod"
# The go command keeps its env file and telemetry counters in the user's
# configuration directory; this keeps them inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# bench/ is a module of its own that imports the parent module's internal
# packages through a replace directive, so the build fails (and this script
# exits non-zero) where the rest of the repository is missing.
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
