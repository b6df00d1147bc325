#!/usr/bin/env bash
# served-smoke.sh builds cmd/served and drives it over HTTP in three
# configurations, failing on the first assertion that does not hold:
#
#   1. a default pool (:18080): a job's lifecycle and trace, a PageRank
#      job, the flight recorder, /v1/stats and Prometheus /metrics;
#   2. -residency (:18082): a repeated job reuses the first one's pins and
#      /v1/stats reports the populated residency section;
#   3. two devices with a scripted loss of the c870 (:18081): the second
#      job migrates to the 8800 GTX, and the probe loop brings the lost
#      device back into rotation.
#
# Run from the repository root: bash scripts/served-smoke.sh
set -eu

dir=$(mktemp -d)
served=$dir/served
SERVED_PID=
trap '[ -n "$SERVED_PID" ] && kill $SERVED_PID 2>/dev/null; rm -rf "$dir"' EXIT
go build -o "$served" ./cmd/served

# start PORT FLAGS... runs served on 127.0.0.1:PORT and waits for /healthz.
start() {
  local port=$1
  shift
  "$served" -addr 127.0.0.1:"$port" "$@" &
  SERVED_PID=$!
  for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:"$port"/healthz >/dev/null && break
    sleep 0.2
  done
  curl -sf http://127.0.0.1:"$port"/healthz >/dev/null
}

stop() {
  kill $SERVED_PID
  wait $SERVED_PID 2>/dev/null || true
  SERVED_PID=
}

echo "== default pool"
start 18080
curl -sf http://127.0.0.1:18080/healthz
BODY=$(curl -sf -X POST http://127.0.0.1:18080/v1/jobs \
  -d '{"template":"edge","h":256,"w":256,"wait":true}')
echo "$BODY"
echo "$BODY" | grep -q '"state":"done"'
echo "$BODY" | grep -q '"report"'
JOB_ID=$(echo "$BODY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
TRACE=$(curl -sf http://127.0.0.1:18080/v1/jobs/$JOB_ID/trace)
echo "$TRACE" | grep -q '"phase":"queue"'
echo "$TRACE" | grep -q '"phase":"exec"'
curl -sf -X POST http://127.0.0.1:18080/v1/jobs \
  -d '{"template":"pagerank","h":512,"w":1,"wait":true}' | grep -q '"state":"done"'
curl -sf http://127.0.0.1:18080/v1/debug/flightrecorder | grep -q '"capacity"'
curl -sf http://127.0.0.1:18080/v1/stats >/dev/null
curl -sf http://127.0.0.1:18080/metrics | grep -q '^# TYPE '
stop

echo "== residency"
start 18082 -residency
# Two identical submissions: the second must reuse the first's pins, and
# /v1/stats must report the populated residency section.
curl -sf -X POST http://127.0.0.1:18082/v1/jobs \
  -d '{"template":"edge","h":512,"w":512,"wait":true}' | grep -q '"state":"done"'
curl -sf -X POST http://127.0.0.1:18082/v1/jobs \
  -d '{"template":"edge","h":512,"w":512,"wait":true}' | grep -q '"state":"done"'
ST=$(curl -sf http://127.0.0.1:18082/v1/stats)
echo "$ST"
echo "$ST" | grep -q '"residency"'
echo "$ST" | grep -q '"enabled":true'
echo "$ST" | grep -q '"pinned_bytes":[1-9]'
stop

echo "== device loss"
start 18081 -devices c870,8800 -chaos-lost c870:20 -probe-interval 50ms
# First job completes cleanly on the c870, second hits the scripted
# device loss and must migrate to the 8800.
curl -sf -X POST http://127.0.0.1:18081/v1/jobs \
  -d '{"template":"edge","h":512,"w":512,"wait":true}' | grep -q '"state":"done"'
BODY=$(curl -s -X POST http://127.0.0.1:18081/v1/jobs \
  -d '{"template":"edge","h":512,"w":512,"wait":true}')
echo "$BODY"
echo "$BODY" | grep -q '"state":"done"'
echo "$BODY" | grep -q '"device":"GeForce 8800 GTX"'
echo "$BODY" | grep -q '"migrated":1'
curl -s http://127.0.0.1:18081/healthz | grep -q '"status":"degraded"'
# The probe loop must bring the lost device back into rotation.
for i in $(seq 1 100); do
  curl -s http://127.0.0.1:18081/healthz | grep -q '"status":"ok"' && break
  sleep 0.2
done
HZ=$(curl -s http://127.0.0.1:18081/healthz)
echo "$HZ"
echo "$HZ" | grep -q '"status":"ok"'
echo "$HZ" | grep -q '"in_rotation":2'
curl -s http://127.0.0.1:18081/metrics | grep -q 'serve_health_transition'
stop
echo "served smoke: OK"
