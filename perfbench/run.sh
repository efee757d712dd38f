#!/usr/bin/env bash
# Builds the benchmark and voqd from the source tree that contains this
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, including the Go build cache, stays under
# .bench_build at the root of the tree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/voqd" voqsim/cmd/voqd) >&2
cd "$root"
exec "$out/perfbench" --voqd "$out/voqd" --out-dir "$out" "$@"
