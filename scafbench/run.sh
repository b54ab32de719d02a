#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash scafbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#   bash scafbench/run.sh -diff .bench_out/a.json .bench_out/b.json
#
# Every build and tool cache lives under .bench_build/ so nothing is
# written outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "scafbench: run from the root of a scaf checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
export GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/scafbench" && go build -o "$build/scafbench" .)
exec "$build/scafbench" "$@"
