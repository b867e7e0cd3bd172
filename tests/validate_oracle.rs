//! Policy-state oracle stress harness.
//!
//! Fuzzes every scheduling policy with seeded random synthetic workloads —
//! including the mixed blocking/async copy sequences the stock model zoo
//! never produces — while the shadow invariant checker (`orion_core::validate`)
//! cross-checks the policy's bookkeeping against the engine's ground-truth
//! event log after every scheduling round. `ValidateMode::Strict` panics on
//! the first violation, so a clean run here is a proof of bookkeeping
//! integrity over the whole schedule.
//!
//! The injection test flips `OrionConfig::inject_hp_copy_drift` to bring the
//! historical `hp_copies` increment/decrement asymmetry back and asserts the
//! oracle reproducibly reports it — demonstrating the bug class the oracle
//! exists to catch. That field exists only under orion-core's
//! `test-fixtures` feature, which this package enables for its tests.
//!
//! Set `ORION_FAST=1` to run the reduced three-seed sweep (CI smoke).

use orion::desim::rng::DetRng;
use orion::gpu::kernel::KernelBuilder;
use orion::prelude::*;
use orion::workloads::model::{Phase, Workload, WorkloadKind};
use orion::workloads::ops::OpSpec;

fn rand_range(rng: &mut DetRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

fn synth_kernel(id: u32, phase: Phase, rng: &mut DetRng) -> (Phase, OpSpec) {
    let dur = SimTime::from_micros(rand_range(rng, 20, 400));
    // Alternate compute-heavy and memory-heavy kernels so Orion's profile
    // gate actually engages.
    let (compute, mem) = if rng.next_u64().is_multiple_of(2) {
        (0.85, 0.15)
    } else {
        (0.15, 0.80)
    };
    (
        phase,
        OpSpec::Kernel(
            KernelBuilder::new(id, format!("k{id}"))
                .solo_duration(dur)
                .utilization(compute, mem)
                .build(),
        ),
    )
}

/// Inference-style request trace with *mixed* copy semantics: an async
/// prefetch, then a blocking input copy queued behind it on the same
/// in-order stream — the ordering that historically drifted the PCIe gate.
fn synth_inference(rng: &mut DetRng) -> Workload {
    let mut ops = vec![
        (
            Phase::Forward,
            OpSpec::H2D {
                bytes: rand_range(rng, 1 << 18, 4 << 20),
                blocking: false,
            },
        ),
        (
            Phase::Forward,
            OpSpec::H2D {
                bytes: rand_range(rng, 1 << 20, 16 << 20),
                blocking: true,
            },
        ),
    ];
    for i in 0..rand_range(rng, 3, 8) {
        ops.push(synth_kernel(i as u32, Phase::Forward, rng));
    }
    ops.push((
        Phase::Forward,
        OpSpec::D2H {
            bytes: rand_range(rng, 1 << 16, 1 << 20),
            blocking: rng.next_u64().is_multiple_of(2),
        },
    ));
    Workload {
        model: ModelKind::ResNet50,
        kind: WorkloadKind::Inference { batch: 1 },
        ops,
        memory_footprint: 64 << 20,
    }
}

/// Training-style iteration trace with proper phase structure (so Tick-Tock
/// can alternate windows) and randomly blocking/async copies.
fn synth_training(rng: &mut DetRng) -> Workload {
    let mut ops = vec![(
        Phase::Forward,
        OpSpec::H2D {
            bytes: rand_range(rng, 1 << 18, 8 << 20),
            blocking: rng.next_u64().is_multiple_of(4),
        },
    )];
    let mut id = 100;
    for _ in 0..rand_range(rng, 2, 5) {
        ops.push(synth_kernel(id, Phase::Forward, rng));
        id += 1;
    }
    for _ in 0..rand_range(rng, 2, 5) {
        ops.push(synth_kernel(id, Phase::Backward, rng));
        id += 1;
    }
    ops.push(synth_kernel(id, Phase::Update, rng));
    if rng.next_u64().is_multiple_of(2) {
        ops.push((
            Phase::Update,
            OpSpec::D2H {
                bytes: rand_range(rng, 1 << 16, 1 << 20),
                blocking: false,
            },
        ));
    }
    Workload {
        model: ModelKind::MobileNetV2,
        kind: WorkloadKind::Training { batch: 8 },
        ops,
        memory_footprint: 64 << 20,
    }
}

fn stress_cfg(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::quick_test().with_seed(seed);
    cfg.horizon = SimTime::from_millis(800);
    cfg.warmup = SimTime::from_millis(100);
    cfg.validate = ValidateMode::Strict;
    cfg
}

fn seeds() -> Vec<u64> {
    if std::env::var("ORION_FAST").is_ok() {
        vec![11, 22, 33]
    } else {
        vec![11, 22, 33, 44, 55]
    }
}

/// Every policy, randomized clients, strict oracle: any bookkeeping drift
/// anywhere in the schedule panics with full op provenance.
#[test]
fn stress_all_policies_run_clean_under_strict_oracle() {
    for seed in seeds() {
        let mut rng = DetRng::new(seed);
        let hp = synth_inference(&mut rng);
        let be1 = synth_training(&mut rng);
        let be2 = synth_training(&mut rng);
        let rps = rand_range(&mut rng, 10, 40) as f64;
        let policies = [
            PolicyKind::Temporal,
            PolicyKind::Streams,
            PolicyKind::StreamPriority,
            PolicyKind::Mps,
            PolicyKind::reef_default(),
            PolicyKind::orion_default(),
            PolicyKind::Orion(OrionConfig {
                pcie_aware_memcpy: true,
                ..OrionConfig::default()
            }),
        ];
        for kind in policies {
            let clients = vec![
                ClientSpec::high_priority(hp.clone(), ArrivalProcess::Poisson { rps }),
                ClientSpec::best_effort(be1.clone(), ArrivalProcess::ClosedLoop),
                ClientSpec::best_effort(be2.clone(), ArrivalProcess::ClosedLoop),
            ];
            let label = kind.label();
            let r = run_collocation(kind, clients, &stress_cfg(seed))
                .unwrap_or_else(|e| panic!("seed {seed} {label}: {e:?}"));
            let report = r.validation.expect("oracle enabled");
            assert!(report.is_clean(), "seed {seed} {label}: {:?}", report.violations);
            assert!(report.rounds > 0, "seed {seed} {label}: oracle never ran");
            assert!(
                report.ops_tracked > 0,
                "seed {seed} {label}: no ops tracked"
            );
        }
    }
}

/// Tick-Tock drives two phase-structured training jobs; its per-client
/// outstanding sets are checked against ground truth every round.
#[test]
fn serving_runs_clean_under_strict_oracle_for_every_policy() {
    // The serving client is an ordinary high-priority client of the
    // collocation world, so every policy schedules it beside a trainer; the
    // batcher adds its own step-boundary invariants to the same oracle.
    let be = ClientSpec::best_effort(
        orion::workloads::registry::training_workload(ModelKind::ResNet50),
        ArrivalProcess::ClosedLoop,
    );
    for kind in [
        PolicyKind::Temporal,
        PolicyKind::Streams,
        PolicyKind::StreamPriority,
        PolicyKind::Mps,
        PolicyKind::reef_default(),
        PolicyKind::TickTock,
        PolicyKind::orion_default(),
        PolicyKind::Orion(OrionConfig::serving()),
    ] {
        let label = kind.label();
        let cfg = ServingConfig::quick_test().with_be(be.clone()).with_policy(kind);
        let r = run_serving(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        let report = r.validation.expect("quick_test arms the oracle");
        assert!(report.is_clean(), "{label}: {:?}", report.violations);
        assert!(report.rounds > 0 && r.completed > 0, "{label}: no serving work");
    }
}

#[test]
fn ticktock_barrier_bookkeeping_is_drift_free() {
    for seed in seeds() {
        let mut rng = DetRng::new(seed.wrapping_mul(31));
        let clients = vec![
            ClientSpec::best_effort(synth_training(&mut rng), ArrivalProcess::ClosedLoop),
            ClientSpec::best_effort(synth_training(&mut rng), ArrivalProcess::ClosedLoop),
        ];
        let r = run_collocation(PolicyKind::TickTock, clients, &stress_cfg(seed)).unwrap();
        let report = r.validation.expect("oracle enabled");
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
        assert!(report.ops_tracked > 0);
    }
}

/// Quiescence property: with sparse arrivals the device drains repeatedly
/// mid-run, and at every drain the oracle asserts all policy counters and
/// outstanding sets are empty/zero.
#[test]
fn device_drains_imply_policy_quiescence() {
    for seed in [7u64, 8, 9] {
        let mut rng = DetRng::new(seed);
        let clients = vec![
            ClientSpec::high_priority(
                synth_inference(&mut rng),
                ArrivalProcess::Poisson { rps: 8.0 },
            ),
            ClientSpec::best_effort(
                synth_training(&mut rng),
                ArrivalProcess::ClosedLoopThink {
                    think: SimTime::from_millis(30),
                },
            ),
        ];
        let mut cfg = stress_cfg(seed);
        cfg.horizon = SimTime::from_secs(1);
        let r = run_collocation(PolicyKind::orion_default(), clients, &cfg).unwrap();
        let report = r.validation.expect("oracle enabled");
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
        assert!(
            report.quiescence_checks > 5,
            "seed {seed}: device never drained ({} checks)",
            report.quiescence_checks
        );
    }
}

/// Reverting the `hp_copies` fix (via the injection flag) must make the
/// oracle report the drift — reproducibly, at every seed, with provenance
/// naming the blocking copy the counter lost track of.
#[test]
fn oracle_reports_injected_hp_copy_drift() {
    for seed in [11u64, 22, 33] {
        let mut rng = DetRng::new(seed);
        let clients = vec![
            ClientSpec::high_priority(
                synth_inference(&mut rng),
                ArrivalProcess::Poisson { rps: 40.0 },
            ),
            ClientSpec::best_effort(synth_training(&mut rng), ArrivalProcess::ClosedLoop),
        ];
        let mut cfg = stress_cfg(seed);
        cfg.validate = ValidateMode::Record; // collect, don't panic
        let kind = PolicyKind::Orion(OrionConfig {
            pcie_aware_memcpy: true,
            inject_hp_copy_drift: true,
            ..OrionConfig::default()
        });
        let r = run_collocation(kind, clients, &cfg).unwrap();
        let report = r.validation.expect("oracle enabled");
        assert!(
            report.violated("hp-copies"),
            "seed {seed}: drift not caught; violations: {:?}",
            report.violations
        );
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "hp-copies")
            .unwrap();
        assert_eq!(v.policy, "Orion");
        assert!(
            v.detail.contains("blocking"),
            "seed {seed}: provenance missing from `{}`",
            v.detail
        );
    }
}

/// The same configuration with the fix in place (injection off) is clean:
/// the violation above is the bug, not oracle noise.
#[test]
fn fixed_hp_copy_bookkeeping_is_clean_on_the_drift_workload() {
    for seed in [11u64, 22, 33] {
        let mut rng = DetRng::new(seed);
        let clients = vec![
            ClientSpec::high_priority(
                synth_inference(&mut rng),
                ArrivalProcess::Poisson { rps: 40.0 },
            ),
            ClientSpec::best_effort(synth_training(&mut rng), ArrivalProcess::ClosedLoop),
        ];
        let kind = PolicyKind::Orion(OrionConfig {
            pcie_aware_memcpy: true,
            ..OrionConfig::default()
        });
        let r = run_collocation(kind, clients, &stress_cfg(seed)).unwrap();
        let report = r.validation.expect("oracle enabled");
        assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
    }
}
