#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments. Run it from the checkout root:
#
#   bash benchmark/run.sh                                  # suite: 5 repeats + verification + traced run
#   bash benchmark/run.sh --workload spgc-omnibus --seed 3 --seconds 10 --trace 0
#   bash benchmark/run.sh -compare old.json new.json
#
# Everything the build and the run write (compiler cache, temporaries such
# as the CPU profile that `go tool pprof` reads, the binary) stays under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build in the
# checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pssd-benchmark" .)
exec "$build/pssd-benchmark" "$@"
