#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload vote-lan4 --seed 1 --seconds 24 --trace 0
#
# The build cache, the binary, the Go tool's home and temporary files, and
# everything a run writes stay under .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
