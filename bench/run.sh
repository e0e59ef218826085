#!/usr/bin/env bash
# Builds vbiperf from the checkout it is run in and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload translation-bound --seed 1 --seconds 25 --trace 0
#
# Every build output (binary, build cache, temporary files) stays under
# .bench_build/ in the repository root. The build fails, and the script
# exits non-zero without output on stdout, when the simulator sources are
# missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/vbiperf" ./cmd/vbiperf >&2
exec "$out/vbiperf" "$@"
