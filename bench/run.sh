#!/usr/bin/env bash
# Builds ntpbench from this checkout's source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/ntpbench" ./ntpbench)
exec "$build/ntpbench" "$@"
