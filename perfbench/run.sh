#!/usr/bin/env bash
# Builds the benchmark and spatialserve from the source tree it is run
# in, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, node data dirs) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/spatialserve" ./cmd/spatialserve

exec "$out/bin/perfbench" -server "$out/bin/spatialserve" -scratch "$out/tmp" "$@"
