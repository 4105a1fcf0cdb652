#!/usr/bin/env bash
# Builds the lamb binary and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload query-minflops --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the two
# binaries) stays under .bench_build/ in the current directory, or under
# $CARGO_TARGET_DIR when that is set. Build output goes to standard
# error, so the last line of standard output is the benchmark's result.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go build -o "$out/lamb" ./cmd/lamb >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -lamb "$out/lamb" -out "$out/perfbench-out" "$@"
