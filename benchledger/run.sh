#!/usr/bin/env bash
# Builds the layer-ledger benchmark from this checkout and runs it:
#
#   bash benchledger/run.sh --workload paper-sim --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and every
# run artefact (state directories, span dumps) stays under .bench_build/ in
# the checkout root. A checkout without the l4e module fails the build, so
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/benchledger" && go build -o "$out/benchledger" .) >&2
cd "$root"
exec "$out/benchledger" -work-dir "$out" "$@"
