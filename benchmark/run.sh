#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's source and runs it from the
# checkout root. Every file the Go toolchain writes (build cache, temporaries,
# binaries) stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# No toolchain download, no user-level Go configuration or telemetry directory.
export GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
