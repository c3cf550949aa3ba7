#!/usr/bin/env bash
# Builds the benchmark binary from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload leafspine-packet --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache, Go configuration file and scratch file stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
