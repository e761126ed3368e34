#!/usr/bin/env bash
# Serving load benchmark: drives the warm worker-pool server and the
# cold per-request offline driver over an identical request schedule and
# writes BENCH_serve.json to the repo root. The warm arm must win on mean
# latency, store hit rate, and classifier invocations per request — see
# bench_compare's `serve` mode for the gated comparison.
#
# Knobs (all optional):
#   SHAHIN_SERVE_REQUESTS     total requests per arm   (default 120)
#   SHAHIN_SERVE_CONCURRENCY  closed-loop clients      (default 4)
#   SHAHIN_SERVE_WARM_ROWS    warm-set size            (default 200)
#   SHAHIN_SERVE_OUT          artifact path            (default BENCH_serve.json)
#   SHAHIN_SEED               base RNG seed            (default 42)
#   SHAHIN_COST_US            simulated classifier cost, µs (default 10)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p shahin-bench --bin bench_serve
cargo run --release -q -p shahin-bench --bin bench_serve
