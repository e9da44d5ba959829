#!/usr/bin/env bash
# Builds twmd, twmw and the benchmark driver from this checkout, then
# runs the driver with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, the Go build cache, datadirs, logs,
# span files) stays under .bench_build/ in the checkout. Each run's
# directory (.bench_build/run-*) is kept; remove them by hand.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local

# With telemetry on, the go command forks a detached sidecar process
# that outlives the build; turn it off (in the private config dir above)
# so that no process is left behind.
go telemetry off
go build -o "$out/bin/" ./cmd/twmd ./cmd/twmw
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
