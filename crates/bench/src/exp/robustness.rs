//! Chaos grid: HP inference + BE training under injected GPU faults.
//!
//! Not a figure from the paper — this sweep quantifies the *robustness*
//! extension: deterministic fault injection (sticky kernel faults + transient
//! copy failures) with the recovery supervisor enabled. For each fault rate
//! and policy it reports the HP client's p99 latency and completions, the
//! best-effort goodput, and the supervisor's recovery counters, showing how
//! gracefully each policy degrades as the device gets less reliable.
//!
//! Every cell goes through the shared deterministic
//! [`Runner`](crate::runner::Runner), so the whole
//! grid — including every injected fault — is bit-identical at any thread
//! count.

use orion_core::prelude::*;
use orion_workloads::arrivals::{ArrivalProcess, PaperRates};
use orion_workloads::model::ModelKind;

use crate::exp::{be_training, hp_inference, hp_mut, run_grid, standard_policies, ExpConfig};
use crate::runner::Scenario;
use crate::table::{f2, TextTable};

/// One (fault rate, policy) cell of the chaos grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// P(sticky kernel fault) per submitted kernel.
    pub kernel_fault_rate: f64,
    /// Policy label.
    pub policy: &'static str,
    /// HP p99 latency (ms).
    pub hp_p99_ms: f64,
    /// HP requests completed inside the window.
    pub hp_completed: u64,
    /// Best-effort training goodput (iters/s): only completed iterations
    /// count, so shed/retried work is excluded by construction.
    pub be_tput: f64,
    /// Supervisor + engine recovery counters for the run.
    pub robustness: RobustnessReport,
}

/// The fault-rate sweep (kernel-fault probability per submitted kernel;
/// transient copy failures are injected at twice each rate).
pub fn fault_rates(cfg: &ExpConfig) -> Vec<f64> {
    if cfg.fast {
        vec![0.0, 2e-3]
    } else {
        vec![0.0, 1e-4, 5e-4, 2e-3]
    }
}

/// Runs the chaos grid: fault rate x policy, RN50 HP inference (Poisson at
/// the Table 3 rate) collocated with MobileNetV2 BE training.
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

    let rates = fault_rates(cfg);
    let policies = standard_policies();
    let mut grid = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let cell_rc = rc.clone().with_faults(FaultConfig::none().with_rates(FaultRates {
            kernel_fault: rate,
            copy_fail: 2.0 * rate,
            ..FaultRates::default()
        }));
        for policy in &policies {
            // Same seed index per rate: every policy sees identical arrivals
            // AND an identical fault schedule, so columns compare pairwise.
            grid.push(
                Scenario::new(
                    format!("chaos@{rate:.0e}"),
                    policy.clone(),
                    vec![hp.clone(), be.clone()],
                    cell_rc.clone(),
                )
                .with_seed_cell(ri as u64),
            );
        }
    }

    let mut outcomes = run_grid(grid).into_iter();
    let mut cells = Vec::new();
    for &rate in &rates {
        for policy in &policies {
            let mut o = outcomes.next().expect("grid covers every cell");
            let be_tput = o.res().be_throughput();
            let robustness = o.res().robustness.clone();
            let hp_res = hp_mut(o.res_mut());
            cells.push(Cell {
                kernel_fault_rate: rate,
                policy: policy.label(),
                hp_p99_ms: hp_res.latency.p99().as_millis_f64(),
                hp_completed: hp_res.completed,
                be_tput,
                robustness,
            });
        }
    }
    cells
}

/// Prints the chaos grid.
pub fn print(cells: &[Cell]) {
    println!("# Chaos grid: RN50 HP inference + MNv2 BE training under injected faults");
    println!("# (kernel-fault rate per submitted kernel; copy-fail rate = 2x)");
    let mut t = TextTable::new(vec![
        "fault-rate",
        "policy",
        "hp-p99-ms",
        "hp-done",
        "be-iters/s",
        "faults",
        "resets",
        "retries",
        "quarantines",
        "shed",
        "resubmitted",
    ]);
    for c in cells {
        let r = &c.robustness;
        t.row(vec![
            format!("{:.0e}", c.kernel_fault_rate),
            c.policy.to_string(),
            f2(c.hp_p99_ms),
            c.hp_completed.to_string(),
            f2(c.be_tput),
            r.device_faults.to_string(),
            r.device_resets.to_string(),
            r.retries.to_string(),
            r.quarantines.to_string(),
            r.shed_requests.to_string(),
            r.resubmitted_ops.to_string(),
        ]);
    }
    print!("{}", t.render());
}
