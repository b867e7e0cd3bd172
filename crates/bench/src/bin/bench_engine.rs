//! Engine-throughput microbenchmark: measures how many simulated operations
//! per second the GPU engine hot path sustains, plus the wall-clock cost of a
//! Figure 6/7-style collocation run, and writes both to `BENCH_engine.json`.
//!
//! Driven by `scripts/bench.sh`. Environment:
//!
//! - `ORION_FAST=1` — smoke mode: fewer iterations, shorter collocation
//!   horizon (CI uses this; the numbers are not meaningful, the schema is).
//! - `ORION_BENCH_OUT=<path>` — output path (default `BENCH_engine.json`
//!   in the current directory, which `scripts/bench.sh` pins to repo root).
//!
//! Output schema (`orion-bench-engine/v3`):
//!
//! ```json
//! {
//!   "schema": "orion-bench-engine/v3",
//!   "fast": false,
//!   "events_per_sec": 11.5e6,         // peak ops/sec over engine configs
//!   "wall_ms": 343.0,                 // total wall clock of all sections
//!   "engine": [                       // one row per (streams x ops) config
//!     {"streams": 1, "ops": 1000, "iters": 20,
//!      "events_per_sec": 7.0e6, "wall_ms": 2.9, "eval_count": 0}
//!   ],
//!   "collocation": {                  // one fig6_7-style cell, Orion policy
//!     "label": "resnet50+resnet50-train", "policy": "Orion",
//!     "wall_ms": 310.0, "ops": 81234, "events_per_sec": 2.6e5,
//!     "hp_p99_ms": 9.1, "be_tput": 3.4}
//! }
//! ```

use std::error::Error;
use std::time::Instant;

use orion_bench::exp::{be_training, hp_inference, ExpConfig};
use orion_core::prelude::*;
use orion_desim::time::SimTime;
use orion_gpu::engine::GpuEngine;
use orion_gpu::kernel::KernelBuilder;
use orion_gpu::spec::GpuSpec;
use orion_gpu::stream::StreamPriority;
use orion_json::{json, Value};
use orion_workloads::arrivals::ArrivalProcess;
use orion_workloads::model::ModelKind;

/// Submits `n_ops` kernels round-robin over `n_streams` streams and advances
/// until all complete. Returns the number of completions (== `n_ops`) and the
/// number of interference-model evaluations the run took.
///
/// The kernel descriptor is built once and submitted by reference
/// ([`GpuEngine::submit_kernel`]), so the timed region measures the engine,
/// not the builder or `Arc` refcount traffic.
fn submit_and_drain(n_ops: u64, n_streams: usize) -> Result<(u64, u64), Box<dyn Error>> {
    let mut e = GpuEngine::new(GpuSpec::v100_16gb(), false);
    let streams: Vec<_> = (0..n_streams)
        .map(|_| e.create_stream(StreamPriority::DEFAULT))
        .collect();
    e.reserve_ops(n_ops as usize);
    let proto = KernelBuilder::new(0, "bench")
        .grid_blocks(40)
        .threads_per_block(256)
        .solo_duration(SimTime::from_micros(50))
        .utilization(0.5, 0.3)
        .build();
    for i in 0..n_ops {
        e.submit_kernel(streams[i as usize % n_streams], &proto)
            .map_err(|e| format!("submitting bench kernel {i}/{n_ops}: {e}"))?;
    }
    e.advance_to(SimTime::from_secs(60));
    let done = e.drain_completions().len() as u64;
    Ok((done, e.eval_count()))
}

/// Times one engine config over `iters` timed iterations (plus one warmup).
fn engine_config(n_ops: u64, n_streams: usize, iters: u32) -> Result<Value, Box<dyn Error>> {
    let (done, evals) = submit_and_drain(n_ops, n_streams)?; // warmup
    if done != n_ops {
        return Err(format!(
            "engine dropped operations: {done}/{n_ops} completed (streams={n_streams})"
        )
        .into());
    }
    let start = Instant::now();
    for _ in 0..iters {
        submit_and_drain(std::hint::black_box(n_ops), n_streams)?;
    }
    let wall = start.elapsed();
    let total_ops = n_ops * iters as u64;
    let eps = total_ops as f64 / wall.as_secs_f64();
    eprintln!(
        "[bench] engine streams={n_streams} ops={n_ops}: {:.0} events/sec ({:?}/iter, \
         {evals} evals)",
        eps,
        wall / iters,
    );
    Ok(json!({
        "streams": n_streams as u64,
        "ops": n_ops,
        "iters": iters,
        "events_per_sec": eps,
        "wall_ms": wall.as_secs_f64() * 1e3,
        "eval_count": evals,
    }))
}

/// One Figure 6/7-style collocation cell (HP ResNet50 inference under
/// Poisson arrivals + BE ResNet50 training, Orion policy), run untraced as
/// the experiments run; the executed-op count is the engine's completion
/// counter.
fn collocation(cfg: &ExpConfig) -> Result<Value, Box<dyn Error>> {
    let rc = cfg.run_config();
    let clients = vec![
        hp_inference(
            ModelKind::ResNet50,
            ArrivalProcess::Poisson { rps: 40.0 },
        ),
        be_training(ModelKind::ResNet50),
    ];
    let policy = PolicyKind::orion_default();
    let start = Instant::now();
    let mut r = run_collocation(policy, clients, &rc)
        .map_err(|e| format!("collocation cell failed to run: {e}"))?;
    let wall = start.elapsed();
    let ops = r.ops_completed;
    let eps = ops as f64 / wall.as_secs_f64();
    let be_tput = r.be_throughput();
    let hp = r
        .clients
        .iter_mut()
        .find(|c| c.priority == orion_core::client::ClientPriority::HighPriority)
        .ok_or("collocation cell has no high-priority client")?;
    eprintln!(
        "[bench] collocation {}: {} ops in {:.1} ms ({:.0} events/sec)",
        r.policy,
        ops,
        wall.as_secs_f64() * 1e3,
        eps
    );
    Ok(json!({
        "label": "resnet50+resnet50-train",
        "policy": r.policy,
        "wall_ms": wall.as_secs_f64() * 1e3,
        "ops": ops,
        "events_per_sec": eps,
        "hp_p99_ms": hp.latency.p99().as_millis_f64(),
        "be_tput": be_tput,
    }))
}

/// Scaling gate (`ORION_BENCH_GATE=1`): the 16-stream cell must stay within
/// 20% of the 4-stream cell, and the 64-stream cell must hold at least 45%
/// of the 16-stream throughput — otherwise a per-kernel cost has grown
/// faster than linearly in the number of running kernels. Runs its own
/// moderately sized cells so CI's fast mode still gets a low-noise
/// measurement. Each cell is measured three times with the three
/// cells *interleaved* (so a transient load spike on the host hits every
/// cell, not just one), and the gate compares per-cell bests: a regression
/// gate cares whether the engine *can* reach the throughput, and a
/// best-of-N estimator is far less noisy than any single run on a shared
/// machine.
fn scaling_gate() -> Result<(), Box<dyn Error>> {
    let eps = |row: &Value| row["events_per_sec"].as_f64().unwrap_or(0.0);
    let mut best = [0.0f64; 3];
    for _ in 0..3 {
        for (slot, &streams) in [4usize, 16, 64].iter().enumerate() {
            let row = engine_config(3_000, streams, 7)?;
            best[slot] = best[slot].max(eps(&row));
        }
    }
    let (eps4, eps16, eps64) = (best[0], best[1], best[2]);
    if eps16 < 0.8 * eps4 {
        return Err(format!(
            "perf gate: events/sec fell off a cliff from 4 to 16 streams: \
             {eps4:.0} -> {eps16:.0} (more than 20% drop)"
        )
        .into());
    }
    // Bar placement: each wave of identical kernels costs one evaluation
    // over the k kernels running at once, so the 64-stream cell pays for 64
    // loads per refresh where the 16-stream cell pays for 16. The dense
    // running set holds 0.46-0.52 here on a 2-core VM (EXPERIMENTS.md
    // "Dense engine"); an engine that rebuilt its loads from the op slab on
    // every refresh measured ~0.29. 0.45 sits between the two.
    if eps64 < 0.45 * eps16 {
        return Err(format!(
            "perf gate: events/sec fell off a cliff from 16 to 64 streams: \
             {eps16:.0} -> {eps64:.0} (more than 55% drop)"
        )
        .into());
    }
    eprintln!(
        "[bench] perf gate ok: 4 streams {eps4:.0} ev/s, 16 streams {eps16:.0} ev/s, \
         64 streams {eps64:.0} ev/s"
    );
    Ok(())
}

/// Pins the glibc malloc thresholds by re-execing once with them set.
///
/// Each bench iteration allocates and frees multi-hundred-KB buffers (the op
/// slab, the completion vector). With default thresholds glibc returns those
/// to the OS on free — via `munmap` or heap trim, depending on allocation
/// history — and every iteration then re-faults the pages, which measures the
/// kernel's page allocator (~50-70ns/op of noise) instead of the engine.
/// Keeping freed buffers in-process makes iterations reuse warm pages and
/// makes runs reproducible. No-op when the caller already set the variables.
#[cfg(target_os = "linux")]
fn pin_malloc_thresholds() {
    const VARS: [&str; 2] = ["MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"];
    if VARS.iter().all(|v| std::env::var_os(v).is_some()) {
        return;
    }
    use std::os::unix::process::CommandExt;
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let mut cmd = std::process::Command::new(exe);
    cmd.args(std::env::args_os().skip(1));
    for v in VARS {
        cmd.env(v, "1073741824");
    }
    // exec only returns on failure; fall through and run untuned.
    let _ = cmd.exec();
}

#[cfg(not(target_os = "linux"))]
fn pin_malloc_thresholds() {}

fn main() -> Result<(), Box<dyn Error>> {
    pin_malloc_thresholds();
    let cfg = ExpConfig::from_env();
    let iters: u32 = if cfg.fast { 3 } else { 20 };
    let configs: &[(u64, usize)] = if cfg.fast {
        &[(200, 1), (200, 4), (200, 16)]
    } else {
        &[
            (1_000, 1),
            (1_000, 4),
            (1_000, 16),
            (1_000, 64),
            (1_000, 256),
            (10_000, 4),
            (100_000, 4),
        ]
    };

    if std::env::var("ORION_BENCH_GATE").is_ok_and(|v| v == "1") {
        scaling_gate()?;
    }

    let total = Instant::now();
    let engine: Vec<Value> = configs
        .iter()
        .map(|&(ops, streams)| engine_config(ops, streams, iters))
        .collect::<Result<_, _>>()?;
    let peak = engine
        .iter()
        .filter_map(|row| row["events_per_sec"].as_f64())
        .fold(0.0_f64, f64::max);
    let coll = collocation(&cfg)?;
    let wall_ms = total.elapsed().as_secs_f64() * 1e3;

    let out = json!({
        "schema": "orion-bench-engine/v3",
        "fast": cfg.fast,
        "events_per_sec": peak,
        "wall_ms": wall_ms,
        "engine": engine,
        "collocation": coll,
    });
    let path =
        std::env::var("ORION_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    std::fs::write(&path, out.to_pretty())
        .map_err(|e| format!("writing bench output {path}: {e}"))?;
    println!("{path}: peak {peak:.0} events/sec, total wall {wall_ms:.0} ms");
    Ok(())
}
