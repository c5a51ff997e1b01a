#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root
# of the checkout and runs it from that root with the given arguments.
# Everything the Go toolchain writes (build cache, module cache, temporary
# and configuration files) is pointed inside the checkout, and nothing is
# fetched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/fqbench" .) >&2
cd "$root"
exec "$out/fqbench" "$@"
