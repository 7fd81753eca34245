#!/usr/bin/env bash
# Builds dprbench, a module of its own that takes the repository's
# packages from the checkout it sits in, then runs it with the given
# arguments from the checkout's root:
#
#   bash dprbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and traced runs' spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/dprbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd dprbench && go build -o "$out/dprbench" .)
exec "$out/dprbench" --trace-dir "$out/traces" "$@"
