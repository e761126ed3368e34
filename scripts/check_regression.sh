#!/usr/bin/env bash
# Perf-regression gate: reruns the parallel-driver, observability-overhead
# and serving benchmarks at CI scale and diffs the fresh
# artifacts against the committed baselines under baselines/ci/ with
# bench_compare. Exits non-zero when a deterministic count changed or a
# wall-time/speedup tolerance was exceeded.
#
#   scripts/check_regression.sh                     # gate against baselines
#   scripts/check_regression.sh --update-baselines  # regenerate baselines
#
# Knobs (all optional; the baselines were generated with these defaults, and
# bench_compare refuses to diff mismatched workloads):
#   SHAHIN_REG_BATCH       tuples per parallel-bench batch   (default 300)
#   SHAHIN_REG_LATENCY_US  simulated classifier latency, µs  (default 20)
#   SHAHIN_REG_THREADS     thread counts swept               (default 2,4)
#   SHAHIN_REG_OBS_BATCH   tuples per obs-bench batch        (default 400)
#   SHAHIN_REG_OBS_REPS    obs-bench repetitions per arm     (default 7)
#   SHAHIN_REG_SERVE_REQS  serve-bench requests per arm      (default 80)
#   SHAHIN_REG_SERVE_CONC  serve-bench closed-loop clients   (default 4)
#   SHAHIN_REG_OBS_LIVE_REPS  scrape-arm repetitions         (default 7)
#   SHAHIN_REG_TRACE_REPS  tracing-arm repetitions           (default 7)
#   SHAHIN_REG_TENANCY_REQS   tenancy-arm Zipf-mixed requests (default 60)
#   SHAHIN_REG_TENANCY_IDLE_MS tenancy keepalive before evict (default 1500)
#   SHAHIN_REG_OUT         where fresh artifacts land        (default mktemp)
# Comparison tolerances: see bench_compare (SHAHIN_CMP_TOL_*).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_DIR=baselines/ci
BATCH="${SHAHIN_REG_BATCH:-300}"
LATENCY="${SHAHIN_REG_LATENCY_US:-20}"
THREADS="${SHAHIN_REG_THREADS:-2,4}"
OBS_BATCH="${SHAHIN_REG_OBS_BATCH:-400}"
OBS_REPS="${SHAHIN_REG_OBS_REPS:-7}"
SERVE_REQS="${SHAHIN_REG_SERVE_REQS:-80}"
SERVE_CONC="${SHAHIN_REG_SERVE_CONC:-4}"
OBS_LIVE_REPS="${SHAHIN_REG_OBS_LIVE_REPS:-7}"
TRACE_REPS="${SHAHIN_REG_TRACE_REPS:-7}"
TENANCY_REQS="${SHAHIN_REG_TENANCY_REQS:-60}"
TENANCY_IDLE_MS="${SHAHIN_REG_TENANCY_IDLE_MS:-1500}"

if [[ "${1:-}" == "--update-baselines" ]]; then
    OUT="$BASELINE_DIR"
    mkdir -p "$OUT"
else
    OUT="${SHAHIN_REG_OUT:-$(mktemp -d)}"
    mkdir -p "$OUT"
fi

cargo build --release -p shahin-bench \
    --bin bench_parallel --bin bench_obs --bin bench_serve \
    --bin bench_compare

# The obs bench runs first: its arms are short (~100ms) and timing-
# sensitive, and running them on a machine still recovering from the
# parallel bench's minute of all-core busy-wait skews the overheads.
echo "== observability-overhead benchmark (batch=$OBS_BATCH, reps=$OBS_REPS)"
SHAHIN_OBS_BATCH="$OBS_BATCH" SHAHIN_OBS_REPS="$OBS_REPS" \
    SHAHIN_OBS_OUT="$OUT/BENCH_obs.json" \
    target/release/bench_obs

echo "== serving benchmark (requests=$SERVE_REQS, concurrency=$SERVE_CONC)"
SHAHIN_SERVE_REQUESTS="$SERVE_REQS" SHAHIN_SERVE_CONCURRENCY="$SERVE_CONC" \
    SHAHIN_SERVE_OUT="$OUT/BENCH_serve.json" \
    SHAHIN_OBS_LIVE_OUT="$OUT/BENCH_obs_live.json" \
    SHAHIN_OBS_LIVE_REPS="$OBS_LIVE_REPS" \
    SHAHIN_TRACE_OUT="$OUT/BENCH_trace.json" \
    SHAHIN_TRACE_REPS="$TRACE_REPS" \
    SHAHIN_PERSIST_OUT="$OUT/BENCH_persist.json" \
    SHAHIN_PERSIST_REQUESTS="${SHAHIN_REG_PERSIST_REQS:-$SERVE_REQS}" \
    SHAHIN_TENANCY_OUT="$OUT/BENCH_tenancy.json" \
    SHAHIN_TENANCY_REQUESTS="$TENANCY_REQS" \
    SHAHIN_TENANCY_IDLE_MS="$TENANCY_IDLE_MS" \
    target/release/bench_serve

echo "== parallel-driver benchmark (batch=$BATCH, latency=${LATENCY}us, threads=$THREADS)"
SHAHIN_PAR_BATCH="$BATCH" SHAHIN_PAR_LATENCY_US="$LATENCY" \
    SHAHIN_PAR_THREADS="$THREADS" SHAHIN_PAR_OUT="$OUT/BENCH_parallel.json" \
    target/release/bench_parallel

if [[ "${1:-}" == "--update-baselines" ]]; then
    echo "baselines regenerated under $BASELINE_DIR/ — review and commit them"
    exit 0
fi

echo "== gating against $BASELINE_DIR/"
target/release/bench_compare parallel "$BASELINE_DIR/BENCH_parallel.json" "$OUT/BENCH_parallel.json"
target/release/bench_compare obs "$BASELINE_DIR/BENCH_obs.json" "$OUT/BENCH_obs.json"
target/release/bench_compare serve "$BASELINE_DIR/BENCH_serve.json" "$OUT/BENCH_serve.json"
target/release/bench_compare obs_live "$BASELINE_DIR/BENCH_obs_live.json" "$OUT/BENCH_obs_live.json"
target/release/bench_compare trace "$BASELINE_DIR/BENCH_trace.json" "$OUT/BENCH_trace.json"
target/release/bench_compare persist "$BASELINE_DIR/BENCH_persist.json" "$OUT/BENCH_persist.json"
target/release/bench_compare tenancy "$BASELINE_DIR/BENCH_tenancy.json" "$OUT/BENCH_tenancy.json"
echo "perf-regression gate passed (fresh artifacts in $OUT)"
