#!/usr/bin/env bash
# Builds the benchmark harness and the daemon it drives, then runs the
# harness with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-year --seed 1 --seconds 18 --trace 0
#
# Everything it builds or caches lands in .bench_build/ under the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -d "$root/cmd/lnsd" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/, cmd/lnsd not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-trimpath

go build -o "$build/bin/lnsd" ./cmd/lnsd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" "$@"
