#!/usr/bin/env bash
# pipeline-smoke.sh drives cmd/planview over the compile pass pipeline,
# failing on the first command that does not succeed:
#
#   1. the pass list for the default device and planner, and for a c1060
#      with overlap and the pb-optimal planner, which must list the
#      prefetch pass;
#   2. a PageRank plan's DOT export, which must label its sparse matrix
#      with its packed size;
#   3. a Small CNN compiled partitioned across the C870 + 8800 GTX pool;
#   4. README's overlapped timeline: an edge plan compiled with overlap
#      for the c1060 and replayed as an ASCII Gantt chart;
#   5. the Large CNN 6400x480 compiled with overlap for the c1060, whose
#      prefetch pass hoists the copies of a ~30 k-step plan, within 60 s.
#
# Run from the repository root: bash scripts/pipeline-smoke.sh
set -euo pipefail

go run ./cmd/planview -passes
# grep reads to the end (no -q), so planview never writes into a closed
# pipe and pipefail sees only grep's verdict.
go run ./cmd/planview -passes -device c1060 -overlap -planner pb-optimal | grep 'prefetch' >/dev/null
go run ./cmd/planview -template pagerank -h 512 -dot | grep 'packed' >/dev/null
go run ./cmd/planview -template cnn-small -h 512 -w 384 -partition
go run ./cmd/planview -template edge -h 3000 -w 3000 -device c1060 -trace -overlap
timeout 60 go run ./cmd/planview -template cnn-large -h 6400 -w 480 -device c1060 -overlap
echo "pipeline smoke: OK"
