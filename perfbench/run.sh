#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything it builds or writes
# (Go build cache, binary, traces, data directories, span files) goes
# under .bench_build/ in that checkout. Build output goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
(cd "$root/perfbench" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" -root "$root" -work "$work" -rev "$rev" "$@"
