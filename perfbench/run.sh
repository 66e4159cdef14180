#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 30 --trace 0
#
# The Go build cache, GOPATH and temporary files stay under .bench_build/ too.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
