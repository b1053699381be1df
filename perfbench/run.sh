#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the driver binary, the Go build cache, temporary
# files, traces and session stores.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
