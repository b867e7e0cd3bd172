//! Fleet-scale cluster simulation grid (paper §7 at fleet size).
//!
//! Not a figure from the paper — this grid exercises the fleet control plane
//! (`orion_core::cluster::FleetSim`): hundreds of GPUs, a thousand jobs
//! arriving and departing over an open-loop trace, k-way packing by
//! complementarity, optional online-learned re-placement and migration. Three
//! cells share one synthesized trace:
//!
//! * `orion-offline` — Orion on every GPU, offline profile tables memoized
//!   per workload, placement from static demand vectors. The baseline fleet.
//! * `orion-online+mig` — cold-start online profiling per job (PR-5 admission
//!   ladder), re-placement fed by the learned `ProfileTable`s, and migration
//!   of the worst-matched best-effort resident off GPUs whose high-priority
//!   job underperformed.
//! * `mps` — the MPS baseline policy on every GPU, same placement.
//!
//! Every epoch's episodes fan across the shared deterministic [`Runner`]
//! (per-(gpu, epoch) splitmix seeds), so the whole fleet — placement
//! decisions, migrations, learned tables, per-job statistics — is
//! byte-identical at any thread count (fleet arm of the determinism test).
//!
//! With `ORION_JSONL` set, each cell appends one line carrying a `fleet`
//! block (fleet aggregates + an FNV-1a per-job digest); the block is only
//! ever emitted by this grid, so other experiments' JSONL is unchanged.

use orion_core::cluster::{
    collect_dedicated_refs, dedicated_ref_inputs, ClusterError, FleetConfig, FleetReport,
    FleetSim, FleetTrace, FleetTraceConfig,
};
use orion_core::policy::PolicyKind;
use orion_core::world::run_dedicated;
use orion_desim::time::SimTime;
use orion_json::{json, Value};

use crate::exp::ExpConfig;
use crate::runner::{maybe_append_jsonl_values, Runner};
use crate::table::{f2, TextTable};

/// One fleet cell: a control-plane mode over the shared trace.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Mode label: `orion-offline`, `orion-online+mig`, `mps`.
    pub mode: &'static str,
    /// The fleet-level report.
    pub report: FleetReport,
}

/// Grid dimensions: `(gpus, jobs, epochs)`. Fast mode shrinks the fleet so
/// the debug-build smoke test stays quick; full mode meets the fleet-scale
/// bar (≥ 128 GPUs, ≥ 1000 jobs with churn).
pub fn fleet_dims(cfg: &ExpConfig) -> (usize, usize, usize) {
    if cfg.fast {
        (8, 32, 3)
    } else {
        (128, 1000, 6)
    }
}

/// The shared churn trace for `dims`, seeded from the experiment seed.
pub fn fleet_trace(cfg: &ExpConfig, dims: (usize, usize, usize)) -> FleetTrace {
    let (_, jobs, epochs) = dims;
    let epoch = fleet_epoch(cfg);
    let mut tc = FleetTraceConfig::new(jobs, epoch * epochs as u64);
    tc.seed = cfg.seed;
    FleetTrace::synthesize(&tc)
}

/// Epoch length: short in fast mode (debug-build tests), one second at scale.
pub fn fleet_epoch(cfg: &ExpConfig) -> SimTime {
    if cfg.fast {
        SimTime::from_millis(600)
    } else {
        SimTime::from_secs(1)
    }
}

/// Fleet configuration for one mode over `dims`.
pub fn fleet_config(
    cfg: &ExpConfig,
    dims: (usize, usize, usize),
    policy: PolicyKind,
    online: bool,
    migration: bool,
) -> FleetConfig {
    let (gpus, _, epochs) = dims;
    let mut fc = FleetConfig::new(gpus, epochs);
    fc.epoch = fleet_epoch(cfg);
    fc.policy = policy;
    fc.rc.seed = cfg.seed;
    fc.online = online;
    fc.migration = migration;
    fc
}

/// Drives one fleet end-to-end on an explicit runner: dedicated references
/// and every epoch's episode batch are sharded with [`Runner::map`], whose
/// input-order results keep the control plane's state evolution — and thus
/// the report — byte-identical at any thread count.
///
/// # Errors
///
/// [`ClusterError::BaselineFailed`] when a dedicated reference run fails and
/// [`ClusterError::Gpu`] when offline profiling fails — `BaselineFailed`-
/// style context instead of a mid-fleet panic. (Failed *episodes* are
/// absorbed into [`FleetReport::episode_errors`], not returned here.)
pub fn run_fleet_on(
    runner: &Runner,
    trace: FleetTrace,
    fcfg: FleetConfig,
) -> Result<FleetReport, ClusterError> {
    let refs = runner.map(dedicated_ref_inputs(&trace, &fcfg), |_, (label, client, rc)| {
        (label, run_dedicated(client, &rc))
    });
    let dedicated = collect_dedicated_refs(&trace, refs)?;
    let mut sim = FleetSim::new(trace, fcfg, dedicated)?;
    while let Some(specs) = sim.next_epoch() {
        let results = runner.map(specs, |_, s| {
            let r = s.run();
            (s, r)
        });
        sim.absorb(results);
    }
    Ok(sim.into_report())
}

/// The `robustness` sub-block for a fleet report, or `None` when nothing
/// fault-related happened. Fault-free runs emit no block at all, keeping
/// their JSONL byte-identical to pre-fault-plan builds.
pub fn robustness_json(r: &FleetReport) -> Option<Value> {
    let ro = &r.robustness;
    // `unknown_kernel_ops` counts conservatively-scheduled cold-start ops —
    // routine in online mode, not a fault signal. It must not trigger the
    // block on its own or fault-free online fleets would change their JSONL.
    let episodes_faulted = {
        let mut e = ro.episodes.clone();
        e.unknown_kernel_ops = 0;
        e.any()
    };
    let fleet_faulted = {
        let mut f = ro.clone();
        f.episodes = Default::default();
        f.any()
    };
    if !episodes_faulted && !fleet_faulted && r.episode_failures.is_empty() {
        return None;
    }
    let ep = &ro.episodes;
    Some(json!({
        "chaos_episodes": ro.chaos_episodes,
        "gpus_dead": ro.gpus_dead,
        "quarantines": ro.quarantines,
        "reinstated": ro.reinstated,
        "evacuations": ro.evacuations,
        "evacuations_recovered": ro.evacuations_recovered,
        "max_epochs_to_recovery": ro.max_epochs_to_recovery,
        "be_preempted": ro.be_preempted,
        "be_lost": ro.be_lost,
        "hp_rejected": ro.hp_rejected,
        "availability": ro.availability,
        "episode_device_faults": ep.device_faults,
        "episode_device_resets": ep.device_resets,
        "episode_retries": ep.retries,
        "episode_shed_requests": ep.shed_requests,
        "episode_failures": r.episode_failures.len() as u64,
    }))
}

/// The `fleet` JSONL block for one cell: fleet aggregates plus the FNV-1a
/// per-job digest (the compact determinism fingerprint). A `robustness`
/// sub-block is appended only when fault machinery actually fired.
pub fn fleet_json(cfg: &ExpConfig, cell: &Cell) -> Value {
    let r = &cell.report;
    let mut fleet = json!({
        "mode": cell.mode,
        "gpus": r.gpus as u64,
        "epochs": r.epochs as u64,
        "epoch_ms": r.epoch.as_millis_f64(),
        "jobs": r.jobs.len() as u64,
        "peak_gpus_used": r.peak_gpus_used as u64,
        "dedicated_gpus_needed": r.dedicated_gpus_needed as u64,
        "gpus_saved": r.gpus_saved,
        "hp_p99_ms": r.hp_p99.as_millis_f64(),
        "hp_slo_attainment": r.hp_slo_attainment,
        "be_slo_attainment": r.be_slo_attainment,
        "slo_attainment": r.slo_attainment,
        "migrations": r.migrations,
        "episode_errors": r.episode_errors,
        "oversized_rejected": r.oversized_rejected,
        "never_placed": r.never_placed as u64,
        "jobs_digest": format!("{:016x}", r.jobs_digest()),
    });
    if let Some(ro) = robustness_json(r) {
        if let Value::Object(map) = &mut fleet {
            map.push(("robustness".to_string(), ro));
        }
    }
    json!({
        "seed": cfg.seed,
        "fleet": fleet,
    })
}

/// Runs the three-mode fleet grid over one shared trace.
pub fn run(cfg: &ExpConfig) -> Vec<Cell> {
    let dims = fleet_dims(cfg);
    let runner = Runner::from_env().with_progress(false);
    let modes: Vec<(&'static str, PolicyKind, bool, bool)> = vec![
        ("orion-offline", PolicyKind::orion_default(), false, false),
        ("orion-online+mig", PolicyKind::orion_default(), true, true),
        ("mps", PolicyKind::Mps, false, false),
    ];
    let cells: Vec<Cell> = modes
        .into_iter()
        .map(|(mode, policy, online, migration)| {
            let trace = fleet_trace(cfg, dims);
            let fcfg = fleet_config(cfg, dims, policy, online, migration);
            if runner.progress_enabled() {
                eprintln!("[fleet] {mode}: {} GPUs, {} jobs, {} epochs", dims.0, dims.1, dims.2);
            }
            let report = run_fleet_on(&runner, trace, fcfg)
                .unwrap_or_else(|e| panic!("fleet cell {mode} failed: {e}"));
            Cell { mode, report }
        })
        .collect();
    let lines: Vec<Value> = cells.iter().map(|c| fleet_json(cfg, c)).collect();
    maybe_append_jsonl_values(&lines);
    cells
}

/// Prints the fleet grid.
pub fn print(cells: &[Cell]) {
    println!("# Fleet-scale cluster simulation: churn trace, k-way packing, per-GPU Orion");
    println!("# (GPUs-saved = dedicated fleet size - peak GPUs used; SLO: HP by p99, BE by tput)");
    let mut t = TextTable::new(vec![
        "mode",
        "gpus",
        "peak-used",
        "dedicated",
        "saved",
        "hp-p99-ms",
        "hp-slo%",
        "be-slo%",
        "slo%",
        "migrations",
        "never-placed",
    ]);
    for c in cells {
        let r = &c.report;
        t.row(vec![
            c.mode.to_string(),
            r.gpus.to_string(),
            r.peak_gpus_used.to_string(),
            r.dedicated_gpus_needed.to_string(),
            r.gpus_saved.to_string(),
            f2(c.report.hp_p99.as_millis_f64()),
            f2(100.0 * r.hp_slo_attainment),
            f2(100.0 * r.be_slo_attainment),
            f2(100.0 * r.slo_attainment),
            r.migrations.to_string(),
            r.never_placed.to_string(),
        ]);
    }
    print!("{}", t.render());
}
