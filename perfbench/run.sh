#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, keeping
# every build artefact under .bench_build/ at the checkout root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Outside a full checkout (no ../go.mod)
# the build fails and the script exits non-zero without a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
