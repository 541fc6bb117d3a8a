#!/usr/bin/env bash
# Builds the mount-level benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload smallfile-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build and module caches, the binary
# and the benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
