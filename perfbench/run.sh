#!/usr/bin/env bash
# Builds the NREF benchmark from source and runs it. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload nref-point --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the databases a run creates and the
# trace files all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
