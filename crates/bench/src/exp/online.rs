//! Cold-start convergence grid: offline-profiled vs. online-learned vs.
//! never-profiled Orion, plus a mid-run duration-drift scenario.
//!
//! Not a figure from the paper — this sweep quantifies the *online
//! profiling* extension (DESIGN.md §12): a collocation that starts with
//! empty profile tables and learns kernel durations + the `DUR_THRESHOLD`
//! denominator from the live completion stream. Four cells share one
//! arrival schedule (pinned seed cell), differing only in where profiles
//! come from:
//!
//! * `offline` — the paper's configuration: profiles from the §5.2
//!   offline pass, online learning off. The reference for convergence.
//! * `online` — cold start (`ClientSpec::unprofiled`) with
//!   [`RunConfig::online`] set: the admission ladder must re-derive the
//!   profiles before Orion's gates open up.
//! * `never-profiled` — cold start with learning off: the conservative
//!   fallback path forever (best-effort kernels run only when the
//!   high-priority client is idle). The floor online must beat.
//! * `online+drift` — cold start + learning, and the best-effort client's
//!   kernel durations shift mid-run ([`DriftSpec`]): drift detection must
//!   demote the stale profiles and re-converge.
//!
//! Post-convergence quality is read from the standard measurement window:
//! the warmup already excludes the learning transient (admission needs five
//! clean completions per kernel — a handful of best-effort iterations — and
//! the tuner three requests). Every cell goes through the shared
//! deterministic [`Runner`](crate::runner::Runner), so the whole grid is
//! bit-identical at any thread count (online arm of the determinism test).

use orion_core::prelude::*;
use orion_workloads::arrivals::{ArrivalProcess, DriftSpec, PaperRates};
use orion_workloads::model::ModelKind;

use crate::exp::{be_training, hp_inference, hp_mut, run_grid, ExpConfig};
use crate::runner::Scenario;
use crate::table::{f2, TextTable};

/// One profile-provenance cell of the convergence grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Provenance label: `offline`, `online`, `never-profiled`,
    /// `online+drift`.
    pub mode: &'static str,
    /// HP p99 latency (ms) over the measurement window.
    pub hp_p99_ms: f64,
    /// HP requests completed inside the window.
    pub hp_completed: u64,
    /// Best-effort training throughput (iters/s).
    pub be_tput: f64,
    /// Online-profiler summary (cells that learned, `None` otherwise).
    pub online: Option<OnlineReport>,
}

/// The drift point: halfway through the run, the best-effort client's
/// kernels slow down by 1.5x (the profiles learned so far go stale).
pub fn drift_spec(rc: &RunConfig) -> DriftSpec {
    DriftSpec::new(rc.horizon / 2, 1.5)
}

/// Runs the convergence grid: RN50 HP inference (Poisson, Table 3 rate) +
/// MNv2 BE training under Orion, across the four profile-provenance modes.
pub fn run(cfg: &ExpConfig) -> Vec<Cell> {
    let rc = cfg.run_config();
    let hp_model = ModelKind::ResNet50;
    let hp = hp_inference(
        hp_model,
        ArrivalProcess::Poisson {
            rps: PaperRates::inf_train_poisson(hp_model),
        },
    );
    let be = be_training(ModelKind::MobileNetV2);
    let policy = PolicyKind::orion_default();
    let mut learning = rc.clone();
    learning.online = true;

    let modes: Vec<(&'static str, Vec<ClientSpec>, RunConfig)> = vec![
        ("offline", vec![hp.clone(), be.clone()], rc.clone()),
        (
            "online",
            vec![hp.clone().unprofiled(), be.clone().unprofiled()],
            learning.clone(),
        ),
        (
            "never-profiled",
            vec![hp.clone().unprofiled(), be.clone().unprofiled()],
            rc.clone(),
        ),
        (
            "online+drift",
            vec![
                hp.clone().unprofiled(),
                be.clone().unprofiled().with_drift(drift_spec(&rc)),
            ],
            learning,
        ),
    ];

    let grid: Vec<Scenario> = modes
        .iter()
        .map(|(mode, clients, cell_rc)| {
            // Same seed cell everywhere: every mode sees identical arrival
            // draws, so columns compare pairwise.
            Scenario::new(*mode, policy.clone(), clients.clone(), cell_rc.clone())
                .with_seed_cell(0)
        })
        .collect();

    run_grid(grid)
        .into_iter()
        .zip(modes)
        .map(|(mut o, (mode, _, _))| {
            let be_tput = o.res().be_throughput();
            let online = o.res().online.clone();
            let hp_res = hp_mut(o.res_mut());
            Cell {
                mode,
                hp_p99_ms: hp_res.latency.p99().as_millis_f64(),
                hp_completed: hp_res.completed,
                be_tput,
                online,
            }
        })
        .collect()
}

/// Prints the convergence grid.
pub fn print(cells: &[Cell]) {
    println!("# Online profiling: cold-start convergence vs. offline profiles (Orion)");
    println!("# (RN50 HP inference + MNv2 BE training; error = learned vs. true solo duration)");
    let mut t = TextTable::new(vec![
        "mode",
        "hp-p99-ms",
        "hp-done",
        "be-iters/s",
        "admitted",
        "admissions",
        "demotions",
        "mean-err%",
        "max-err%",
        "thresh-updates",
    ]);
    for c in cells {
        let (admitted, admissions, demotions, mean_err, max_err, updates) = match &c.online {
            Some(r) => (
                r.admitted.to_string(),
                r.admissions.to_string(),
                r.demotions.to_string(),
                f2(100.0 * r.mean_profile_error),
                f2(100.0 * r.max_profile_error),
                r.latency_estimates.to_string(),
            ),
            None => {
                let dash = || "-".to_string();
                (dash(), dash(), dash(), dash(), dash(), dash())
            }
        };
        t.row(vec![
            c.mode.to_string(),
            f2(c.hp_p99_ms),
            c.hp_completed.to_string(),
            f2(c.be_tput),
            admitted,
            admissions,
            demotions,
            mean_err,
            max_err,
            updates,
        ]);
    }
    print!("{}", t.render());
}
