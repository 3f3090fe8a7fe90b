#!/usr/bin/env bash
# Build lattold and the end-to-end benchmark from this checkout, then run
# the benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (Go's
# build cache included), so the checkout is the only place touched.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOWORK=off
go build -o "$out/lattold" ./cmd/lattold >&2
(cd e2ebench && go build -o "../$out/e2ebench" .) >&2
exec "$out/e2ebench" -lattold "$out/lattold" -work "$out" "$@"
