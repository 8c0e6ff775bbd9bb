#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it there; every byte it writes (build cache, binary, temp store
# dirs, traces) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$root/.bench_build/sperr-bench" .
exec .bench_build/sperr-bench "$@"
