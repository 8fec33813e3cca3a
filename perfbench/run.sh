#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload route_batch_binary --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# journals, span files) lands under .bench_build/ in the current
# directory; nothing is read or written elsewhere.
set -euo pipefail

if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config
# directory; point it into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
