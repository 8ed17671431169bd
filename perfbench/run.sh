#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload pnn --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's scratch files all live
# under .bench_build/ (or $CARGO_TARGET_DIR) in the checkout root, and the
# build never touches the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out/run" "$@"
