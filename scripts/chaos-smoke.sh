#!/usr/bin/env bash
# chaos-smoke.sh runs one round of the chaos harness under the race
# detector with a trace writer, then validates the Chrome trace it
# exported. paperbench exits non-zero on a lost job or a dirty ledger, and
# planview on a malformed trace.
#
# Run from the repository root: bash scripts/chaos-smoke.sh
set -euo pipefail

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go run -race ./cmd/paperbench -ext chaos -seed 1 -rounds 1 -trace "$dir/chaos.json"
go run ./cmd/planview -checktrace "$dir/chaos.json"
echo "chaos smoke: OK"
