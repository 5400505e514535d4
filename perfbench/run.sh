#!/usr/bin/env bash
# Builds the perfbench binary from source and runs one benchmark pass.
#
#   bash perfbench/run.sh --workload keyed-bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, spill files, span dumps) goes
# under .bench_build/ in the current directory; nothing is read from or
# written to the user's home or the system temp directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/spans"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

# The build fails (and no result is printed) when the repository around
# perfbench/ is missing: go.mod replaces the wfsort module with "../".
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" --spill-dir "$out/tmp" --spans-dir "$out/spans" "$@"
