#!/usr/bin/env bash
# Builds teleios-server and the vobench program from the surrounding
# source tree, then runs vobench with the given arguments.
#
#   bash vobench/run.sh --workload catalogue-search --seed 1 --seconds 20 --trace 0
#   bash vobench/run.sh compare A.jsonl B.jsonl
#   bash vobench/run.sh steady --workload fire-feed
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/teleios-server" ]; then
	echo "vobench: no teleios source tree at $root" >&2
	exit 2
fi
(cd "$root" && go build -o "$build/bin/teleios-server" ./cmd/teleios-server)
(cd "$root/vobench" && go build -o "$build/bin/vobench" .)
export VOBENCH_BUILD="$build"
cd "$root"
exec "$build/bin/vobench" "$@"
