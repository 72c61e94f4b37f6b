#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout's source and runs it with
# the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload repair-screen --seed 1 --seconds 20 --trace 0
#
# Every build output, Go cache and span file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
