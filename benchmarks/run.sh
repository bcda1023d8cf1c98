#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#	sh benchmarks/run.sh --workload kv_ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, binary) goes under
# .bench_build in the checkout, so that a run reads and writes nothing
# outside it. Without the repository around it there is nothing to build or
# measure, and the script exits non-zero before printing a result.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmarks/run.sh: run it from the root of a checkout of the repository" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmarks" ./benchmarks
exec "$build/benchmarks" "$@"
