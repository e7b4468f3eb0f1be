#!/usr/bin/env bash
# Builds the service benchmark and the LLM stub from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ask --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, snapshot directories) lands in .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/llmstub" repro/cmd/llmstub
) >&2

exec "$out/perfbench" -llmstub "$out/llmstub" -root "$root" "$@"
