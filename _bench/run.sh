#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash _bench/run.sh --workload figures --seed 1 --seconds 15 --trace 0
#
# Every build product (the Go build cache included) goes to .bench_build in
# the current directory, so the run reads and writes nothing else. Outside a
# full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/_bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -results "$out/results" "$@"
