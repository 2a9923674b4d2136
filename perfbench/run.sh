#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload paper-runs --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay in
# $CARGO_TARGET_DIR (default .bench_build) under the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
