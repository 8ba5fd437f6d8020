#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
#
# The go command's cache, temporary files, module cache and config (where
# it keeps its local telemetry counters) all live in .bench_build/, so a
# run writes nothing outside the checkout. It never fetches modules.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
  go -C perfbench build -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
