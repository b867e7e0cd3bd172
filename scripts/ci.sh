#!/usr/bin/env bash
# CI gate for the Orion reproduction: lint, build, full test suite, and the
# fast-mode smoke pass that drives every experiment module through the
# shared scenario runner.
#
# Usage: scripts/ci.sh
# Knobs: ORION_THREADS controls runner parallelism inside the experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: no dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (full workspace suite)"
cargo test -q --workspace

# Debug builds carry checks that release builds leave out: every memoised
# next-event answer is cross-checked against a fresh scan, and integer
# overflow panics. Run the engine suite (golden_trace, proptest_model, the
# engine's unit tests) on the release build too, so the pinned digests are
# checked on the code the benchmarks execute.
echo "==> cargo test -q --release -p orion-gpu (engine suite on the release build)"
cargo test -q --release -p orion-gpu

echo "==> fast smoke suite (ORION_FAST=1, every exp module via the runner)"
ORION_FAST=1 cargo test -q -p orion-bench --test smoke --test determinism

echo "==> policy-state oracle stress (ORION_FAST=1, strict mode, all policies)"
ORION_FAST=1 cargo test -q --test validate_oracle

echo "==> chaos recovery (ORION_FAST=1, fault injection + supervisor, strict oracle)"
ORION_FAST=1 cargo test -q --test chaos_recovery

echo "==> online profiling (ORION_FAST=1, cold-start convergence + drift smoke, strict oracle, 1/4/7-thread determinism)"
ORION_FAST=1 cargo test -q -p orion-core online
ORION_FAST=1 cargo test -q -p orion-bench --test smoke smoke_online
ORION_FAST=1 cargo test -q -p orion-bench --test determinism online_jsonl_is_identical_at_any_thread_count

echo "==> fleet control plane (ORION_FAST=1 smoke grid; churn + tie determinism at 1/4/7 threads)"
ORION_FAST=1 cargo test -q -p orion-bench --test smoke smoke_fleet
ORION_FAST=1 cargo test -q -p orion-bench --test determinism -- fleet_churn_replay placement_ties

echo "==> fleet chaos (ORION_FAST=1: failure-domain smoke; chaos replay at 1/4/7 threads; fault-free golden digests pinned)"
ORION_FAST=1 cargo test -q -p orion-bench --test smoke smoke_fleet_chaos
ORION_FAST=1 cargo test -q -p orion-bench --test determinism -- fleet_chaos_replay fleet_fault_free_digests

echo "==> llm serving (ORION_FAST=1: core serving tests; grid smoke; byte-identical at 1/4/7 threads)"
ORION_FAST=1 cargo test -q -p orion-core serving
ORION_FAST=1 cargo test -q -p orion-bench --test smoke smoke_llm_serving
ORION_FAST=1 cargo test -q -p orion-bench --test determinism llm_serving_grid_is_identical_at_any_thread_count

echo "==> fleet scale (release, 128 GPUs / 1000 jobs with churn + chaos arm, byte-identical at 1/4/7 threads)"
cargo test -q --release -p orion-bench --test determinism full_scale -- --ignored

echo "==> llm serving full grid (release: batched >=2x serial at <=1.5x p99; Orion holds the SLO, MPS does not)"
cargo test -q --release -p orion-bench --test smoke llm_serving_full_grid_story -- --ignored

echo "==> golden trace digest (oracle + fault injection compiled in but disabled: must be byte-identical)"
cargo test -q -p orion-gpu --test golden_trace --test error_paths

echo "==> cluster_placement example (static cluster as a one-epoch FleetSim run)"
cargo run -q --release --example cluster_placement

echo "==> bench smoke + perf gate (16-stream within 20% of 4-stream; 64-stream at least 45% of 16-stream)"
# The smoke run writes to a temporary file, so the committed full-run
# BENCH_engine.json is left as it is.
bench_out=$(mktemp)
trap 'rm -f "$bench_out"' EXIT
ORION_FAST=1 ORION_BENCH_GATE=1 ORION_BENCH_OUT="$bench_out" scripts/bench.sh

echo "==> perfbench smoke (1 s per workload, seed 1: outputs correct, no failed operations, digests pinned exactly)"
for pin in colloc=0x3c75b40d07b8dee5 fleet=0x9d3df367fb84a388 llm_serving=0x08f9a4b66b78a398; do
    w=${pin%%=*}
    want=${pin#*=}
    out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0)
    result=$(printf '%s\n' "$out" | tail -n 1)
    echo "$w: $result"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
        || { echo "perfbench $w: run not correct or operations failed" >&2; exit 1; }
    got=$(printf '%s\n' "$out" | awk '$1 == "digest" { print $5 }')
    echo "$w: $got"
    [ "$got" = "$want" ] || { echo "perfbench $w seed 1: digest $got, pinned $want" >&2; exit 1; }
done

echo "==> perfbench held-out digests (seed 1000, 1 s: simulated outputs pinned exactly)"
for pin in colloc=0x6637ccca07b3f6b2 fleet=0xc2d132176037100b llm_serving=0x4ff818fa6cac6ad4; do
    w=${pin%%=*}
    want=${pin#*=}
    # The line before the result JSON reads `digest <workload> seed <n> <hex> ...`.
    got=$(python3 perfbench/run.py --workload "$w" --seed 1000 --seconds 1 --trace 0 \
        | awk '$1 == "digest" { print $5 }')
    echo "$w: $got"
    [ "$got" = "$want" ] || { echo "perfbench $w seed 1000: digest $got, pinned $want" >&2; exit 1; }
done

echo "==> CI green"
