#!/usr/bin/env bash
# Builds perfbench from the source tree this script sits in and runs it
# with the given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload wkt-query --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) goes under
# .bench_build/ at the root; the toolchain is never downloaded and no
# module is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
