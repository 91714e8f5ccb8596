#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-estimate --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --workload all --seed 1
#   bash benchmark/run.sh compare PARENT_DIR CHANGE_DIR
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary, traces and scratch directories. No network is used: the module has
# no dependencies beyond the repository itself.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/home" "$out/tmp"

# The Go toolchain keeps its build cache, module cache and telemetry under
# the user's home by default; point all of them inside the build directory.
(
	cd "$here"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/home/gomod" GOPATH="$out/home/go" \
		GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0 \
		go build -o "$out/rewire-bench" .
)

export TMPDIR="$out/tmp"
export REWIRE_BENCH_DIR="$out"
exec "$out/rewire-bench" "$@"
