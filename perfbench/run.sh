#!/usr/bin/env bash
# Builds the roadside benchmark from the checkout's source and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-fullbody --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporaries, the binary and the spans of
# traced runs. Without the repository's source beside perfbench/ the
# build fails and so does this script, before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
