#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash _perfbench/run.sh --workload ord-read --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files go under .bench_build/
# in the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOENV=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/_perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
