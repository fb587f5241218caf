#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the repository
# root and runs it there with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload engine-soak --seed 7 --seconds 20 --trace 0
#
# The Go build cache, GOPATH and the go command's own config directory
# live in .bench_build/ too, so nothing is written outside the checkout.
# Outside a full checkout the build fails, and so does the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
