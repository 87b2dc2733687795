#!/usr/bin/env bash
# Builds the benchmark (perfbench) from the checkout it is run in and runs it
# with the given flags. Run from the repository root:
#
#   bash _perfbench/run.sh --workload sim-mixed-durable --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/ in
# the current directory, so the run reads and writes nothing outside it.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal/popsim" ]; then
	echo "perfbench: $here is not inside an erasmus checkout" >&2
	exit 2
fi

out=$PWD/.bench_build/perfbench
mkdir -p "$out/cache" "$out/modcache" "$out/config" "$out/tmp" "$out/work"
export GOCACHE=$out/cache GOMODCACHE=$out/modcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
	PPROF_TMPDIR=$out/tmp
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
