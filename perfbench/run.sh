#!/usr/bin/env bash
# Builds the frame-to-verdict benchmark from the source tree it sits in
# and runs it with the given arguments (see perfbench/README.md).
# Everything the build writes stays under .bench_build/ in the current
# directory, which must be the root of the repository.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
