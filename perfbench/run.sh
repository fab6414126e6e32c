#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload durable-mix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build and
# module caches, the binary, WALs, spans and run records — stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build). Outside a
# checkout (no nestedsg module one level up) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
