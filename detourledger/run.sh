#!/usr/bin/env bash
# Builds detourledger from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash detourledger/run.sh --workload storm-fleet --seed 1 --seconds 15 --trace 0
#   bash detourledger/run.sh -seed 2015 -out ledger.json
#
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail

here=$(dirname "$0")
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C "$here" build -o "$build/detourledger" .
exec "$build/detourledger" "$@"
