#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash odqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build cache and the binary live in
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
(cd "$root/odqbench" && go build -o "$out/odqbench" .)
exec "$out/odqbench" "$@"
