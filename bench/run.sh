#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload videogame --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # all five workloads
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temp files and the binary go to .bench_build/, results to
# bench/out/. Network access is never needed (the module has no
# dependencies outside the repository).
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/bench" build -o "$build/rtkbench" .
exec "$build/rtkbench" "$@"
