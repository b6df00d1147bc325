#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; BENCHMARK.json names
# this script as the command. Run it from the repository root:
#
#   bash bench/run.sh --workload compile_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, the binary) and the spans of
# a traced run go under .bench_build/, so a run touches nothing outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/bench" .
)
cd "$root"
exec "$out/bench" "$@"
