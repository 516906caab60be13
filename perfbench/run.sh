#!/usr/bin/env bash
# Builds the benchmark harness and camserve from this checkout's sources
# into .bench_build/, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Every build artefact and cache stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

cd "$here"
go build -o "$out/perfbench" .
go build -o "$out/camserve" cambricon/cmd/camserve
cd "$root"
exec "$out/perfbench" -camserve "$out/camserve" "$@"
