#!/usr/bin/env bash
# Builds share-server and the sharebench generator from the tree under
# test, then runs one benchmark workload. Run from the repository root:
#
#   bash sharebench/run.sh --workload quote|trade --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and
# scratch space, the binaries, server data directories and span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/share-server || ! -f sharebench/go.mod ]]; then
	echo "sharebench: run from the repository root (go.mod, cmd/share-server and sharebench/ must be present)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
# The go command's own scratch directories, which default to /tmp.
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -o "$build/share-server" ./cmd/share-server
(cd sharebench && go build -o "$build/sharebench" .)

exec "$build/sharebench" -server "$build/share-server" -work "$build/sharebench-work" "$@"
