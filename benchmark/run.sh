#!/usr/bin/env bash
# Builds the host-clock benchmark from source and runs it: the command of
# BENCHMARK.json. Everything the build and the run leave behind stays in
# the checkout: the binary, the Go build cache and temp files under
# .bench_build/, traces under benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "hostbench: $root is not the repository: the benchmark builds against its internal packages" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local

go build -o "$build/hostbench" ./benchmark
exec "$build/hostbench" "$@"
