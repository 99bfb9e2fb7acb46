#!/usr/bin/env bash
# Builds the learn benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash learnbench/run.sh --workload tree --seed 0 --seconds 40 --trace 0
#
# The Go build cache, the binary, temporary files and span files stay in
# .bench_build under the root; the benchmark process replaces this shell.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/learnbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "learnbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
go -C "$root/learnbench" build -o "$build/learnbench" .
exec "$build/learnbench" "$@"
