#!/usr/bin/env bash
# Builds the benchmark runner and the lbmm binary from the checkout it sits
# in, then runs one benchmark run. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload hot-http --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every scratch file of a run stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# With telemetry on, the go command forks a detached child that outlives
# it; the mode file in the run's own config dir turns that off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [[ ! -f go.mod || ! -d cmd/lbmm ]]; then
	echo "perfbench: no lbmm module (go.mod, cmd/lbmm) in $(pwd)" >&2
	exit 1
fi
go build -o "$out/lbmm" ./cmd/lbmm
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -lbmm "$out/lbmm" -scratch "$out/scratch" "$@"
