#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and runs it
# with the given arguments, keeping the Go build cache and temporary files
# inside the checkout. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig6-hits --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
