#!/usr/bin/env sh
# bench.sh — run the perf-trajectory benchmarks and maintain BENCH_serve.json.
#
#   scripts/bench.sh            # regression gate: fail if allocs/op regressed
#   scripts/bench.sh update     # re-measure, rewrite "current", append history
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 2s; CI smoke uses 1x)
#
# The tracked targets are the serving hot loop (engine.Serve / engine.Run
# over a long-generation open-loop stream), the session-serving loop
# (multi-turn agentic stream, warm prefix cache vs cold), the tiered
# serving loop (the same agentic stream on a starved device cache with
# the host-DRAM KV tier demoting and promoting continuously), the
# KV-cache append paths (bulk handle-based vs per-token), the
# elastic-fleet serving path (fleet.Serve with autoscaling and shed
# admission), the chaos serving path (fleet.Serve under a generated
# fault schedule with retry re-admission, circuit breakers, and
# health-aware routing), the traced serving pair (the hot loop with the
# telemetry hooks compiled in: TracedServeOff gates the zero-overhead-
# when-off contract — its allocs/op must equal ServeHotLoop's — while
# TracedServeOn records the live-tracing cost for information), and
# the million-request streamed soak (engine.ServeSource over a lazy
# workload source; sim-events/s and live heap ride along as custom
# metrics), and the LLM sampler under a parallel-scaling sweep (Fig 9
# panel a's shape: four models, 150 MMLU-Redux questions, SF 1-32) and
# on one Table XII cell (the 8B at a 128-token budget over MMLU's 15k
# questions, one response each), and the resolved GPU cost model (one
# prefill priced from its padded-size tile plus one decode chunk, the
# pair of calls the engine makes per admission and decode event). Only allocs/op is gated — it is deterministic across machines — while ns/op
# is recorded for the before/after table in the README. The
# pre-optimization reference in BENCH_serve.json's "pre_pr" section is
# preserved across updates, and each update also appends a per-PR
# "history" entry tagged with the commit the measurement was taken at,
# so the cross-PR perf trajectory stays machine-readable.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
MODE="${1:-check}"

run_benches() {
  go test -run '^$' -bench 'BenchmarkServeHotLoop$|BenchmarkRunHotLoop$|BenchmarkSessionServe$|BenchmarkTieredServe$|BenchmarkTracedServeOff$|BenchmarkTracedServeOn$' \
    -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/engine
  # The soak streams 1e6 requests per op (~2s); one iteration is enough
  # signal and keeps the suite fast at any -benchtime.
  go test -run '^$' -bench 'BenchmarkSoakServe$' \
    -benchmem -benchtime 1x -count 1 ./internal/engine
  go test -run '^$' -bench 'BenchmarkKVAppend$|BenchmarkKVAppendToken$' \
    -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/kvcache
  go test -run '^$' -bench 'BenchmarkAutoscaleServe$|BenchmarkChaosServe$' \
    -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/fleet
  go test -run '^$' -bench 'BenchmarkSweep$|BenchmarkTable12Cell$' \
    -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/tts
  go test -run '^$' -bench 'BenchmarkCostModel$' \
    -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/gpusim
}

case "$MODE" in
  update)
    # Tag the history entry with the tree actually measured: a dirty
    # working tree (modified OR untracked files) gets a "-dirty" suffix
    # so a pre-commit measurement can never overwrite the previous PR's
    # frozen clean-tree entry (benchcheck dedupes history by this tag).
    # Run update again after committing to record the stable point.
    COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
      COMMIT="${COMMIT}-dirty"
    fi
    DATE="$(date -u +%Y-%m-%d)"
    run_benches | tee /dev/stderr | go run ./cmd/benchcheck -baseline BENCH_serve.json -update \
      -commit "$COMMIT" -date "$DATE"
    ;;
  check)
    run_benches | tee /dev/stderr | go run ./cmd/benchcheck -baseline BENCH_serve.json -hotpaths .
    ;;
  *)
    echo "usage: scripts/bench.sh [check|update]" >&2
    exit 2
    ;;
esac
