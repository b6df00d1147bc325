#!/usr/bin/env bash
# One-core burner for the disturbed set of AA.md: busy for 5 s, idle for
# 10 s, until killed. Start it beside a set of runs and kill it after:
#
#   bash bench/burner.sh & burner=$!; ...runs...; kill $burner
set -u
child=
trap 'kill "$child" 2>/dev/null; exit 0' TERM INT
while :; do
	timeout 5 bash -c 'while :; do :; done' &
	child=$!
	wait "$child"
	sleep 10 &
	child=$!
	wait "$child"
done
