#!/usr/bin/env bash
# Builds the job benchmark from this checkout's sources and runs it.
#
#   bash jobbench/run.sh --workload job-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and spools
# stays under .bench_build/ in the current directory. Without the
# repository's sources (a directory holding only the benchmark) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/jobbench/go.mod" ]]; then
	echo "jobbench: run from the root of a tsteiner checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/jobbench" && go build -o "$out/jobbench" .) >&2
exec "$out/jobbench" "$@"
