#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload runahead-detail --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout's build
# directory ($CARGO_TARGET_DIR, default .bench_build): the binary, the Go
# build cache and the Chrome traces. The build needs the simulator's module
# one directory up; without it the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME=$out/home
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
