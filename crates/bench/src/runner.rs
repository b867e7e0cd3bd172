//! The shared scenario runner: deterministic parallel execution of
//! experiment grids.
//!
//! Every paper figure/table sweeps a (policy × workload × seed) grid of
//! *cells*. The [`Runner`] fans those cells across a pool of OS threads and
//! guarantees **bit-identical results at any thread count**:
//!
//! * each cell's RNG seed is derived statelessly by splitmix from
//!   `(base_seed, cell_index)` ([`orion_desim::rng::cell_seed`]), never from
//!   execution order;
//! * results are written into a slot indexed by the cell's position in the
//!   input grid, so the output `Vec` ordering is the input ordering
//!   regardless of which worker finished first;
//! * serialized output ([`write_jsonl`](Runner::write_jsonl)) contains only
//!   simulation-derived quantities — wall-clock timings go to the progress
//!   stream (stderr), never into result rows.
//!
//! Thread count comes from the `ORION_THREADS` environment variable
//! (default: available parallelism). `ORION_JSONL=<path>` makes the
//! experiment binaries append one JSON line per cell to `<path>`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use orion_core::prelude::*;
use orion_desim::rng::cell_seed;
use orion_gpu::error::GpuError;
use orion_json::{json, Value};

/// One cell of an experiment grid: a policy, a set of clients, and the run
/// configuration (GPU spec + horizon + warmup + base seed) to collocate
/// them under.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cell label, e.g. `"RN50-inf + MNv2-train"`; carried into results.
    pub label: String,
    /// Scheduling policy for this cell.
    pub policy: PolicyKind,
    /// Clients to collocate (one entry =
    /// [`run_dedicated`](orion_core::world::run_dedicated) semantics is NOT
    /// implied; a single client is simply a one-client collocation).
    pub clients: Vec<ClientSpec>,
    /// Run configuration; `rc.seed` is the *base* seed — the runner derives
    /// the cell's actual seed from it and the seed index.
    pub rc: RunConfig,
    /// Optional explicit seed-derivation index. Defaults to the cell's grid
    /// position. Give cells that must be compared *pairwise* (the same
    /// workload combination under different policies) the same index so
    /// they see identical arrival draws — a pure function of grid content,
    /// so thread-count independence is unaffected.
    pub seed_cell: Option<u64>,
}

impl Scenario {
    /// Builds a scenario cell.
    pub fn new(
        label: impl Into<String>,
        policy: PolicyKind,
        clients: Vec<ClientSpec>,
        rc: RunConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            policy,
            clients,
            rc,
            seed_cell: None,
        }
    }

    /// Pins the seed-derivation index (see [`Scenario::seed_cell`]).
    pub fn with_seed_cell(mut self, k: u64) -> Self {
        self.seed_cell = Some(k);
        self
    }
}

/// The outcome of one scenario cell.
#[derive(Debug)]
pub struct CellOutcome {
    /// Index of the cell in the submitted grid.
    pub index: usize,
    /// Scenario label.
    pub label: String,
    /// Policy label.
    pub policy: &'static str,
    /// The derived per-cell seed actually used.
    pub seed: u64,
    /// Wall-clock execution time of this cell (progress/summary only —
    /// deliberately excluded from [`CellOutcome::to_json`]).
    pub wall: Duration,
    /// The collocation result, or the device error (e.g. OOM).
    pub result: Result<RunResult, GpuError>,
}

impl CellOutcome {
    /// The run result; panics with the cell label when the run failed.
    pub fn res(&self) -> &RunResult {
        match &self.result {
            Ok(r) => r,
            Err(e) => panic!("cell '{}' ({}) failed: {e}", self.label, self.policy),
        }
    }

    /// Mutable access to the run result; panics when the run failed.
    pub fn res_mut(&mut self) -> &mut RunResult {
        match &mut self.result {
            Ok(r) => r,
            Err(e) => panic!("cell failed: {e}"),
        }
    }

    /// Serializes the simulation-derived portion of this outcome as one
    /// JSON object (one line of the JSONL stream). Deterministic: contains
    /// no wall-clock or thread-dependent data.
    pub fn to_json(&mut self) -> Value {
        let mut obj = vec![
            ("cell".to_string(), Value::from(self.index as u64)),
            ("label".to_string(), Value::from(&self.label)),
            ("policy".to_string(), Value::from(self.policy)),
            ("seed".to_string(), Value::from(self.seed)),
        ];
        match &mut self.result {
            Ok(r) => {
                obj.push(("window_s".to_string(), Value::from(r.window.as_secs_f64())));
                obj.push((
                    "utilization".to_string(),
                    json!({
                        "compute": r.utilization.compute,
                        "mem_bw": r.utilization.mem_bw,
                        "sm_busy": r.utilization.sm_busy,
                    }),
                ));
                // Only present when something actually fired: fault-free runs
                // keep their JSONL byte-identical to pre-chaos builds.
                if r.robustness.any() {
                    let rb = &r.robustness;
                    obj.push((
                        "robustness".to_string(),
                        json!({
                            "device_faults": rb.device_faults,
                            "device_resets": rb.device_resets,
                            "op_faults": rb.op_faults,
                            "ops_aborted": rb.ops_aborted,
                            "resubmitted_ops": rb.resubmitted_ops,
                            "retries": rb.retries,
                            "quarantines": rb.quarantines,
                            "readmissions": rb.readmissions,
                            "shed_requests": rb.shed_requests,
                            "client_crashes": rb.client_crashes,
                            "client_hangs": rb.client_hangs,
                            "slow_polls": rb.slow_polls,
                            "watchdog_stalls": rb.watchdog_stalls,
                            "unknown_kernel_ops": rb.unknown_kernel_ops,
                        }),
                    ));
                }
                // Only present when online profiling was enabled: offline
                // runs keep their JSONL byte-identical to pre-online builds.
                if let Some(on) = &r.online {
                    obj.push((
                        "online".to_string(),
                        json!({
                            "tracked": on.tracked as u64,
                            "admitted": on.admitted as u64,
                            "admissions": on.admissions,
                            "demotions": on.demotions,
                            "clean_samples": on.clean_samples,
                            "interfered_samples": on.interfered_samples,
                            "clean_latency_samples": on.clean_latency_samples,
                            "contaminated_latency_samples": on.contaminated_latency_samples,
                            "latency_estimates": on.latency_estimates,
                            "mean_profile_error": on.mean_profile_error,
                            "max_profile_error": on.max_profile_error,
                        }),
                    ));
                }
                let clients: Vec<Value> = r
                    .clients
                    .iter_mut()
                    .map(|c| {
                        json!({
                            "label": &c.label,
                            "priority": format!("{:?}", c.priority),
                            "completed": c.completed,
                            "throughput_per_s": c.throughput,
                            "p50_ms": c.latency.p50().as_millis_f64(),
                            "p95_ms": c.latency.p95().as_millis_f64(),
                            "p99_ms": c.latency.p99().as_millis_f64(),
                        })
                    })
                    .collect();
                obj.push(("clients".to_string(), Value::from(clients)));
            }
            Err(e) => {
                obj.push(("error".to_string(), Value::from(format!("{e}"))));
            }
        }
        Value::Object(obj)
    }
}

/// Deterministic parallel executor for experiment grids.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    progress: bool,
}

impl Runner {
    /// A runner with an explicit worker-thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            progress: false,
        }
    }

    /// Reads `ORION_THREADS` (default: available parallelism). Progress
    /// reporting on stderr is enabled unless `ORION_QUIET=1`.
    pub fn from_env() -> Self {
        let threads = std::env::var("ORION_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let quiet = std::env::var("ORION_QUIET").map(|v| v == "1").unwrap_or(false);
        Runner {
            threads,
            progress: !quiet,
        }
    }

    /// The worker-thread count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether progress/summary lines are emitted on stderr.
    pub fn progress_enabled(&self) -> bool {
        self.progress
    }

    /// Enables/disables per-cell progress lines on stderr.
    pub fn with_progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Deterministic parallel map: applies `f` to every item, fanning the
    /// work across the thread pool, and returns results **in input order**.
    ///
    /// `f` receives `(index, item)`; any seed derivation inside `f` must use
    /// the index (e.g. via [`cell_seed`]), never shared mutable state, for
    /// the thread-count-independence guarantee to hold. A panic inside `f`
    /// propagates to the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let started = Instant::now();
        // Single-threaded fast path keeps stack traces simple and makes the
        // 1-thread arm of the determinism test exercise a distinct code path.
        if self.threads == 1 || total == 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(i, item);
                    self.report_progress(i, 1 + i, total, started);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(total) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item taken twice");
                    let r = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                    let finished = 1 + done.fetch_add(1, Ordering::SeqCst);
                    self.report_progress(i, finished, total, started);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect()
    }

    fn report_progress(&self, index: usize, finished: usize, total: usize, started: Instant) {
        if self.progress {
            eprintln!(
                "[runner] cell {index} done ({finished}/{total}, {:.1}s elapsed)",
                started.elapsed().as_secs_f64()
            );
        }
    }

    /// Runs a grid of collocation scenarios.
    ///
    /// Each cell's seed is `cell_seed(scenario.rc.seed, seed_cell)` — a
    /// pure function of the base seed and the cell's seed index (its grid
    /// position unless pinned) — so the output is identical at any thread
    /// count. Device errors (e.g. OOM) are captured per cell, not
    /// panicked, so a grid with one infeasible cell still completes.
    pub fn run_scenarios(&self, scenarios: Vec<Scenario>) -> Vec<CellOutcome> {
        self.map(scenarios, |index, sc| {
            let mut rc = sc.rc;
            rc.seed = cell_seed(rc.seed, sc.seed_cell.unwrap_or(index as u64));
            let seed = rc.seed;
            let started = Instant::now();
            let result = run_collocation(sc.policy.clone(), sc.clients, &rc);
            CellOutcome {
                index,
                label: sc.label,
                policy: sc.policy.label(),
                seed,
                wall: started.elapsed(),
                result,
            }
        })
    }

    /// Writes one JSON line per cell to `out`, in cell order.
    pub fn write_jsonl(outcomes: &mut [CellOutcome], out: &mut impl Write) -> io::Result<()> {
        for o in outcomes {
            writeln!(out, "{}", o.to_json().to_compact())?;
        }
        Ok(())
    }

    /// Serializes all outcomes to one JSONL string (used by the
    /// determinism tests to compare 1-thread vs N-thread runs).
    pub fn to_jsonl(outcomes: &mut [CellOutcome]) -> String {
        let mut buf = Vec::new();
        Self::write_jsonl(outcomes, &mut buf).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("JSONL is UTF-8")
    }

    /// One-line human summary of a finished grid (wall-clock, cells, errors).
    pub fn summary(&self, outcomes: &[CellOutcome]) -> String {
        let total_wall: Duration = outcomes.iter().map(|o| o.wall).sum();
        let errors = outcomes.iter().filter(|o| o.result.is_err()).count();
        format!(
            "{} cells on {} thread(s), {:.2}s cpu across cells, {} error(s)",
            outcomes.len(),
            self.threads,
            total_wall.as_secs_f64(),
            errors
        )
    }
}

/// Appends the per-cell JSONL for `outcomes` to the path named by the
/// `ORION_JSONL` environment variable, if set. Used by the experiment
/// binaries so any figure's structured results can be captured without
/// changing its printed table.
pub fn maybe_write_jsonl(outcomes: &mut [CellOutcome]) {
    if let Ok(path) = std::env::var("ORION_JSONL") {
        if path.is_empty() {
            return;
        }
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| Runner::write_jsonl(outcomes, &mut f));
        if let Err(e) = result {
            eprintln!("[runner] failed to write ORION_JSONL={path}: {e}");
        }
    }
}

/// Appends pre-built JSON lines to the `ORION_JSONL` path, if set. The fleet
/// grid uses this for its `fleet` block rows — per-fleet aggregates that do
/// not fit the per-cell [`CellOutcome`] schema. Emitted only when a fleet
/// grid actually ran, so non-fleet JSONL streams are unchanged byte-for-byte.
pub fn maybe_append_jsonl_values(values: &[Value]) {
    if let Ok(path) = std::env::var("ORION_JSONL") {
        if path.is_empty() || values.is_empty() {
            return;
        }
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                for v in values {
                    writeln!(f, "{}", v.to_compact())?;
                }
                Ok(())
            });
        if let Err(e) = result {
            eprintln!("[runner] failed to write ORION_JSONL={path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_workloads::arrivals::ArrivalProcess;
    use orion_workloads::registry::{inference_workload, training_workload};
    use orion_workloads::ModelKind;

    fn tiny_grid() -> Vec<Scenario> {
        let mut rc = RunConfig::quick_test();
        rc.horizon = orion_desim::time::SimTime::from_millis(400);
        rc.warmup = orion_desim::time::SimTime::from_millis(100);
        [PolicyKind::Streams, PolicyKind::orion_default()]
            .into_iter()
            .flat_map(|p| {
                let rc = rc.clone();
                [10.0f64, 20.0].into_iter().map(move |rps| {
                    Scenario::new(
                        format!("rn50@{rps}"),
                        p.clone(),
                        vec![
                            ClientSpec::high_priority(
                                inference_workload(ModelKind::ResNet50),
                                ArrivalProcess::Poisson { rps },
                            ),
                            ClientSpec::best_effort(
                                training_workload(ModelKind::MobileNetV2),
                                ArrivalProcess::ClosedLoop,
                            ),
                        ],
                        rc.clone(),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn map_preserves_input_order() {
        let r = Runner::new(4);
        let out = r.map((0..100).collect(), |i, x: u64| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_depend_on_cell_index_not_thread_count() {
        let grid = tiny_grid();
        let a = Runner::new(1).run_scenarios(grid.clone());
        let b = Runner::new(4).run_scenarios(grid);
        let seeds_a: Vec<u64> = a.iter().map(|o| o.seed).collect();
        let seeds_b: Vec<u64> = b.iter().map(|o| o.seed).collect();
        assert_eq!(seeds_a, seeds_b);
        // All distinct: the derivation decorrelates cells.
        let mut dedup = seeds_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds_a.len());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_cells() {
        let mut out = Runner::new(2).run_scenarios(tiny_grid());
        let jsonl = Runner::to_jsonl(&mut out);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), out.len());
        for (i, line) in lines.iter().enumerate() {
            let v = orion_json::parse(line).expect("line parses");
            assert_eq!(v["cell"].as_u64(), Some(i as u64));
            assert!(v["clients"].as_array().is_some());
            assert!(v["wall"].is_null(), "wall-clock must not leak into results");
            assert!(
                v["online"].is_null(),
                "online block must be absent when online profiling is off"
            );
        }
    }
}
