#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the driver from source into .bench_build/ (a no-op when the
# sources have not changed) and runs it. Everything the build and the
# run write — the Go build cache, temporary files, provenance logs,
# trace files — stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run me from the root of a checkout (no bench/go.mod under $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
