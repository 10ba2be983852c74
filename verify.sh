#!/usr/bin/env bash
# verify.sh — the contributor verification loop from CLAUDE.md:
# build, vet (the jobbench module too), a gofmt check, full tests,
# then the race-mode pass that gates the concurrency layer
# (internal/par and the obs collectors), a
# 50-run two-core repeat of the worker-pool tests, a race-mode
# pass over the fault-tolerance suite (injected faults, checkpoint/
# resume, panic containment), the property/differential-oracle gate,
# the scaled-design gates (shard-count byte-identity under -race,
# windowed-STA oracle, and the BENCH_scale.json
# sub-linearity re-measurement), the multi-corner sign-off gates
# (per-corner fixpoint oracle, corner properties, and the multi-corner
# shard determinism matrix under -race), a
# short native-fuzz smoke over the byte-level decoders, the workspace
# and batched-forward byte-identity + benchmark-replay gates, the
# allocation-regression gate against BENCH_refine.json (including the
# batched per-candidate records), the live-observability smoke gate
# (-obs-listen scrape via tracestat + trace-fixture A/B regression
# detection), the tsteinerd daemon gates (byte-identity fault matrix
# under -race plus a boot/submit/scrape/drain smoke), and a refresh of
# the per-package coverage baseline in COVERAGE.md.
set -euo pipefail
cd "$(dirname "$0")"

go build ./...
go vet ./...
# jobbench is a module of its own, so ./... skips it: compile, vet and
# unit-test it here, or a deleted name it calls breaks only the benchmark.
(cd jobbench && GOWORK=off go vet . && GOWORK=off go test .)
test -z "$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
go test ./...
go test -race -short ./...
go test -race -run 'Fault|Resume|Panic' ./...

# Scheduling gate: the worker pool's tests, repeated on two real cores,
# where a second worker can race ahead of a failing one.
GOMAXPROCS=2 go test -count=50 ./internal/par

# Daemon gate: the tsteinerd byte-identity + fault matrix (concurrent
# submits vs serial runner, kill/restart resume, queue saturation, retry
# storms) and the server/client cmd smoke, all under the race detector.
go test -race -run 'Serve|Job|Resume' ./...

# Live-observability race gate: concurrent /metrics+/trace scrapes while
# the full pipeline refines (server-on/off byte-identity runs under the
# race detector here; the -short race pass above skips it).
go test -race -run 'ObsServer|ConcurrentScrapes' ./internal/obs ./internal/exp

# Property-based tests + brute-force differential oracles.
go test -run 'Prop|Oracle' ./...

# Multi-corner sign-off gates: the per-corner fixpoint oracle on all ten
# benchmarks, typical-corner bitwise identity, the matrix-penalty
# refiner (hold guard, fault matrix), and the corner property tests —
# then the multi-corner shard determinism matrix under the race
# detector (byte-identity at any shard/worker count).
go test -run 'Corner|MultiCorner' ./...
go test -race -run 'MultiCornerDeterminism|PropCornerMonotone|CornerTypical' ./internal/shard ./internal/sta

# Scaled-design gates: the shard-count/worker-count byte-identity matrix
# (incremental path vs the full-pipeline Reference) and the windowed-STA
# oracle — then the determinism matrix again under the race detector
# (the -short race pass above runs it on a 3x design; this one is the
# full gate).
go test -run 'Shard|Window' ./...
go test -race -run 'ShardDeterminism' ./internal/shard

# Scale-regression gate: re-measure the smallest and largest pinned
# design sizes through the sharded engine and fail if per-round wall
# time stops being sub-linear in cell count (the committed
# BENCH_scale.json is held to the same bound statically by every
# `go test ./...` run via TestScaleBaselineSubLinear).
go test ./internal/bench/ -run TestBenchScaleGate -benchscale -timeout 30m

# Refine evaluation byte-identity gates. The refiner evaluates through
# one session: frozen rows, pooled workspaces, lane groups and a lane
# memo. Each part of the allocating reference it replaced is held by a
# test against code that stays. FrozenForwardMatchesFull holds the
# frozen forward (Steiner stage on the trees that hold a Steiner point
# only) to the full graph op-level: values and coordinate gradients,
# mixed trees and no Steiner point at all. WorkspaceOpsByteIdentical
# holds every pooled tape op to the allocating tape's.
# LaneGroupsByteIdentical and BatchReplay's w=2..4 rows split a
# candidate pass into min(workers, lanes) blocks, each on its own
# goroutine, and must equal the single fused pass; at workers >= lanes
# every block is one lane, so they also hold the fused pass to one
# forward per candidate. End to end, the session must replay the
# digests the allocating reference recorded, down to final Steiner
# coordinates: BenchReplay and BatchReplay against BENCH_refine.json,
# WorkspaceForwardMatchesAllocating and BatchReplayPipelineByteIdentical
# at one and four lanes, and BatchedRefineMatchesSequential on the core
# fixture.
# LaneMemoMatchesFreshGradient holds every lane's memo-served gradient
# to a fresh one, and RefineWithoutSteinerPoints refines a design whose
# moving half is empty.
# DenseMatchesNaive holds the register-blocked Linear/MatMul kernel bit
# for bit to the naive loops, and TrainHashPinned holds the trainer to a
# recorded model hash (the replay pins above never see a weight
# gradient). RefineAcceptPinned is the only gate on a refine loop that
# accepts a move: it pins the result bytes of an APU refine job whose
# refinement improves sign-off TNS (every workload above rejects all of
# its iterations). OutputsPinned holds the stdout and artifact bytes of
# the compiled tsteiner and runflow CLIs.
go test -run 'Workspace|BenchReplay|BatchReplay|DenseMatchesNaive|TrainHashPinned|FrozenForwardMatchesFull|RefineWithoutSteinerPoints|LaneMemoMatchesFreshGradient|LaneGroupsByteIdentical|BatchedRefineMatchesSequential|RefineAcceptPinned|OutputsPinned' ./...

# Allocation-regression gate: re-measure the refine loop and fail if
# pooled allocs/op regress >10% over the committed BENCH_refine.json.
# (package path first: go test hands the unknown -benchgate flag to the
# test binary, and everything after it too)
go test ./internal/bench/ -run TestBenchAllocGate -benchgate

# Live-observability smoke gate: a tiny run serving -obs-listen must
# answer /healthz and expose a valid Prometheus /metrics while it is
# refining; `tracestat -scrape` is the validator (export.ValidateText).
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
go build -o "$OBS_TMP/tsteiner" ./cmd/tsteiner
go build -o "$OBS_TMP/tracestat" ./cmd/tracestat
"$OBS_TMP/tsteiner" -design spm -scale 0.12 -epochs 4000 -iters 50 \
  -obs-listen 127.0.0.1:0 >"$OBS_TMP/run.log" 2>&1 &
OBS_PID=$!
OBS_URL=
for _ in $(seq 100); do
  OBS_URL=$(sed -n 's#.*obs: serving .* on \(http://[0-9.:]*\)$#\1#p' "$OBS_TMP/run.log" | head -1)
  [ -n "$OBS_URL" ] && break
  kill -0 "$OBS_PID" 2>/dev/null || { echo "obs smoke run died:"; cat "$OBS_TMP/run.log"; exit 1; }
  sleep 0.1
done
[ -n "$OBS_URL" ] || { echo "obs smoke run never logged its address"; cat "$OBS_TMP/run.log"; exit 1; }
"$OBS_TMP/tracestat" -scrape "$OBS_URL"
kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true

# tsteinerd smoke gate: boot the daemon on a random port, submit a tiny
# sign-off job through client mode, validate the daemon's /metrics with
# `tracestat -scrape`, then SIGTERM and require a clean drain (exit 0).
"$OBS_TMP/tsteiner" -design spm -scale 0.12 -baseline-only \
  -save-design "$OBS_TMP/design.json" >/dev/null 2>&1
"$OBS_TMP/tsteiner" -serve 127.0.0.1:0 -spool "$OBS_TMP/spool" \
  >"$OBS_TMP/serve.log" 2>&1 &
SRV_PID=$!
SRV_URL=
for _ in $(seq 100); do
  SRV_URL=$(sed -n 's#^tsteinerd listening on \(http://[0-9.:]*\)$#\1#p' "$OBS_TMP/serve.log" | head -1)
  [ -n "$SRV_URL" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || { echo "tsteinerd died at boot:"; cat "$OBS_TMP/serve.log"; exit 1; }
  sleep 0.1
done
[ -n "$SRV_URL" ] || { echo "tsteinerd never advertised its URL"; cat "$OBS_TMP/serve.log"; exit 1; }
"$OBS_TMP/tsteiner" -submit "$SRV_URL" -job-design "$OBS_TMP/design.json" \
  -kind signoff -job-id verify-smoke -wait 2m >"$OBS_TMP/submit.log" 2>&1
grep -q '"State": "done"' "$OBS_TMP/submit.log" \
  || { echo "tsteinerd smoke job did not finish:"; cat "$OBS_TMP/submit.log"; exit 1; }
"$OBS_TMP/tracestat" -scrape "$SRV_URL"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "tsteinerd did not drain cleanly"; cat "$OBS_TMP/serve.log"; exit 1; }

# Trace-analyzer gate against the committed fixtures: the analyzer must
# reproduce the rollup/convergence tables, and the A/B diff must flag
# the seeded regression in trace_b (exit nonzero).
"$OBS_TMP/tracestat" cmd/tracestat/testdata/trace_a.ndjson >/dev/null
if "$OBS_TMP/tracestat" -diff -min-ms 1 \
    cmd/tracestat/testdata/trace_a.ndjson cmd/tracestat/testdata/trace_b.ndjson \
    >/dev/null 2>&1; then
  echo "tracestat -diff failed to flag the seeded regression in trace_b" >&2
  exit 1
fi

# Fuzz smoke: 10 s per byte-level decoder, tsteinerd's job-request
# decode + Normalize + Validate and the -corners parser included.
# -run '^$' skips unit tests; bounded minimization keeps single-core
# runs productive.
go test -run '^$' -fuzz FuzzReadCheckpoint -fuzztime 10s -fuzzminimizetime=5x ./internal/guard/
go test -run '^$' -fuzz FuzzLoadDesign -fuzztime 10s -fuzzminimizetime=5x ./internal/designio/
go test -run '^$' -fuzz FuzzReadForestJSON -fuzztime 10s -fuzzminimizetime=5x ./internal/designio/
go test -run '^$' -fuzz FuzzLoadModel -fuzztime 10s -fuzzminimizetime=5x ./internal/gnn/
go test -run '^$' -fuzz FuzzJobRequest -fuzztime 10s -fuzzminimizetime=5x ./internal/serve/
go test -run '^$' -fuzz FuzzParseCorners -fuzztime 10s -fuzzminimizetime=5x ./internal/sta/

# Refresh the per-package coverage baseline.
{
  echo '# Coverage baseline'
  echo
  echo 'Regenerated by `./verify.sh` (`go test -cover`, short mode).'
  echo 'Review diffs to this file like any other: a package dropping'
  echo 'sharply usually means tests were lost, not code added.'
  echo
  echo '```'
  go test -short -cover ./... \
    | sed -nE 's/^ok[[:space:]]+([^[:space:]]+).*coverage: ([0-9.]+)% of statements.*/\1 \2%/p' \
    | awk '{printf "%-44s %s\n", $1, $2}'
  echo '```'
} > COVERAGE.md
echo "coverage baseline written to COVERAGE.md"
