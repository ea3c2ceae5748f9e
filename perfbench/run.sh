#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# from the repository root:
#
#   bash perfbench/run.sh --workload sweep-l3 --seed 1 --seconds 30 --trace 0
#
# The build, its Go caches, temporary files and the go command's own
# configuration and telemetry stay inside the checkout, in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
