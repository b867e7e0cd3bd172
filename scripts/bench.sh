#!/usr/bin/env bash
# Engine-throughput benchmark driver: builds the bench harness, runs the
# `bench_engine` binary, and leaves `BENCH_engine.json` at the repo root
# (schema `orion-bench-engine/v3`, see EXPERIMENTS.md "Benchmarks").
#
# Usage: scripts/bench.sh
# Knobs:
#   ORION_FAST=1        smoke mode (CI): few iterations, short collocation
#   ORION_BENCH_OUT=f   output path (default: BENCH_engine.json at repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p orion-bench"
cargo build --release -p orion-bench

echo "==> bench_engine (ORION_FAST=${ORION_FAST:-0})"
./target/release/bench_engine
