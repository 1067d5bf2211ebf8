#!/usr/bin/env bash
# Builds connbench from source into .bench_build/ at the root of the checkout
# and runs it from there with the arguments given. Everything the go command
# writes (build cache, temp files, its own config) stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" XDG_CONFIG_HOME="$out/config" GOPROXY=off
mkdir -p "$GOTMPDIR"
go build -C bench -o "$out/connbench" .
exec "$out/connbench" "$@"
