#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it
# with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload synth-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write goes under .bench_build/. The
# module graph is the repository alone (bench/go.mod replaces repro with
# ../), so with the proxy and toolchain downloads off the build needs no
# network, and GOFLAGS and GOWORK are cleared so the caller's settings
# cannot change what is built.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
b="$root/.bench_build"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod"
export XDG_CONFIG_HOME="$b/config" XDG_CACHE_HOME="$b/cache"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
(cd "$root/bench" && go build -o "$b/bench" .)
exec "$b/bench" "$@"
