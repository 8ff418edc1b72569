#!/usr/bin/env bash
# Builds the placement daemons and the perfbench program from the source
# tree this script sits in, then runs perfbench with the given flags:
#
#   bash perfbench/run.sh --workload hit-replay --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and trace
# file goes under .bench_build/ in that root; nothing is written
# elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

go build -C "$root" -o "$out/bin/" ./cmd/replicad ./cmd/replicafleet
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" -manifest "$root/BENCHMARK.json" "$@"
