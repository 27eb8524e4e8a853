#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload remote-small --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and run files all
# stay under .bench_build/ in the repository root (CARGO_TARGET_DIR
# overrides the location), so a run writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-runs" "$@"
