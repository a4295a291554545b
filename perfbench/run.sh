#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload wire-interactive --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary and the WAL
# directories of the run.
set -euo pipefail
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" \
	GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd "$root/perfbench" && go build -o "$b/perfbench" .) >&2
cd "$root"
exec "$b/perfbench" -dir "$b" "$@"
