#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, scratch stores and span files all stay
# under .bench_build ($CARGO_TARGET_DIR when set). A build failure
# exits non-zero before anything is measured.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work-dir "$out" "$@"
