#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--sets K] [--smoke]
#       builds, then runs all five workloads (each in a process of its own,
#       the measured run and then the traced repeat), prints every metric by
#       name with its unit and checks the outputs. With --sets K >= 2 every
#       end-to-end metric's spread is printed beside its bound and a spread
#       over the bound fails the command. --smoke runs at 1/50 size.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of stdout is the result
#       object BENCHMARK.json's contract describes.
#
# Results, per-request rows and traces land in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the current directory,
# which this script never changes.
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

export SHAHIN_BENCH_RUSTC="${SHAHIN_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export SHAHIN_BENCH_COMMIT="${SHAHIN_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

case " $* " in
    *" --workload "*) ;;
    # The whole suite fails on a late load generator too.
    *) export SHAHIN_BENCH_STRICT=1 ;;
esac

exec "$target/release/shahin-benchmark" --out "$here/out" "$@"
